package main

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/ctrlnet"
	"repro/internal/proto"
	"repro/internal/svc"
	"repro/internal/topology"
)

// The service workload: svc.Server on E32's LAN (4×4 torus, 48 hosts,
// 128-slot frames) in this process, reached over loopback UDP — not a
// real link — by two tenant sessions. Load is open-loop: a generator
// issues flows (open → hold → close; 80% best-effort, 20% guaranteed at
// rate 1; every 4th admitted flow pushes an 8-cell burst) on a seeded
// Poisson schedule, first at a fixed rate, then on a ladder of rates that
// is searched by bisection for the highest rung the service sustains.
const (
	svSessions    = 2
	svFixedRate   = 4000.0 // flows/s of the fixed-rate phase
	svGtdFrac     = 0.2
	svBurstEvery  = 4
	svBurstCells  = 8
	svHoldMean    = time.Millisecond
	svBatch       = 250 * time.Microsecond // generator wake period
	svLimitP99    = 5 * time.Millisecond   // reported per rung, not a pass condition
	svMinAchieved = 0.98
	// A phase whose median batch starts more than svMaxLate after its
	// scheduled time is rejected: the generator, not the server, set the
	// offered rate. Four batch gaps is one idle tick of the server, the
	// longest stretch it keeps a processor.
	svMaxLate = 4 * svBatch
	// A rung is abandoned (and fails) once more opens are outstanding, so
	// an overloaded rung ends before the server's batch backlog reaches
	// its shedding watermark (1,024 messages) or any request times out.
	svMaxOutstanding = 384
	// svWindow splits the fixed-rate phase for per-window figures.
	svWindow      = 500 * time.Millisecond
	svSetups      = 3
	svServerNode  = 0
	svClientBase  = 1000
	svIncarnation = 7
)

// svLadder is the ladder of offered rates (flows/s), 3% apart from 2,000
// to about 33,000.
var svLadder = func() []float64 {
	out := make([]float64, 96)
	r := 2000.0
	for i := range out {
		out[i] = math.Round(r/10) * 10
		r *= 1.03
	}
	return out
}()

type svFlow struct {
	src, dst topology.NodeID
	rate     int
	hold     time.Duration
	gap      time.Duration // from the previous flow's due time
}

// genFlows draws n flows at mean rate flows/s from a stream keyed by seed
// and phase, so every phase of every run with one seed sees the same
// requests.
func genFlows(seed int64, phase int, hosts []topology.NodeID, rate float64, n int) []svFlow {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(phase)))
	out := make([]svFlow, n)
	for i := range out {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		f := svFlow{src: src, dst: dst,
			hold: time.Duration(rng.ExpFloat64() * float64(svHoldMean)),
			gap:  time.Duration(rng.ExpFloat64() / rate * float64(time.Second)),
		}
		if rng.Float64() < svGtdFrac {
			f.rate = 1
		}
		out[i] = f
	}
	return out
}

// serverTransport wraps the server's UDP endpoint. Untraced it only
// forwards; traced it records the server goroutine's timeline: time
// blocked in Wait, request handling (each non-empty batch, with every
// reply send as a child span), and idle ticks (from an empty Wait to the
// next Wait).
type serverTransport struct {
	*ctrlnet.UDP
	tr      *tracer
	open    bool
	batches int64
	msgs    int64
	ticks   int64
	tickNS  int64
	waitNS  int64
}

func (t *serverTransport) Send(from, to topology.NodeID, wire []byte, arriveUS int64) ([]ctrlnet.Delivery, error) {
	if t.tr == nil {
		return t.UDP.Send(from, to, wire, arriveUS)
	}
	t.tr.begin(spCtrlnetSend, t.tr.cur)
	ds, err := t.UDP.Send(from, to, wire, arriveUS)
	t.tr.end()
	return ds, err
}

func (t *serverTransport) Wait(d time.Duration) []ctrlnet.Delivery {
	if t.tr == nil {
		return t.UDP.Wait(d)
	}
	if t.open {
		k := t.tr.stack[len(t.tr.stack)-1].kind
		if dur := t.tr.end(); k == spSvcTick {
			t.tickNS += dur
		}
	}
	t.tr.begin(spCtrlnetWait, t.tr.cur)
	ds := t.UDP.Wait(d)
	t.waitNS += t.tr.end()
	if len(ds) > 0 {
		t.batches++
		t.msgs += int64(len(ds))
		t.tr.setID(uint64(t.batches))
		t.tr.begin(spSvcHandle, t.tr.cur)
	} else {
		t.ticks++
		t.tr.begin(spSvcTick, t.tr.cur)
	}
	t.open = true
	return ds
}

// svWorld is one running service: LAN, server, and tenant sessions.
type svWorld struct {
	lan     *core.LAN
	st      *serverTransport
	srv     *svc.Server
	served  chan error
	clients []*svc.Client
	cudp    []*ctrlnet.UDP
	hosts   []topology.NodeID
	setup   time.Duration
	admits  atomic.Int64
}

func startService(seed int64, tr *tracer) (*svWorld, error) {
	t0 := time.Now()
	g, err := topology.Torus(4, 4, 10)
	if err != nil {
		return nil, err
	}
	if err := topology.AttachHosts(g, 3, 1); err != nil {
		return nil, err
	}
	lan, err := core.New(core.Config{Topology: g, FrameSlots: 128, Seed: seed})
	if err != nil {
		return nil, err
	}
	udp, err := ctrlnet.NewUDP(ctrlnet.UDPConfig{Local: map[topology.NodeID]string{svServerNode: "127.0.0.1:0"}})
	if err != nil {
		return nil, err
	}
	w := &svWorld{lan: lan, st: &serverTransport{UDP: udp, tr: tr}, served: make(chan error, 1)}
	w.srv, err = svc.NewServer(svc.Config{
		LAN: lan, Transport: w.st, Node: svServerNode,
		MaxVCsPerTenant:        1 << 20,
		MaxGuaranteedPerTenant: 1 << 20,
		Tick:                   time.Millisecond,
		Incarnation:            svIncarnation,
	})
	if err != nil {
		udp.Close()
		return nil, err
	}
	go func() { w.served <- w.srv.Serve() }()
	for i := 0; i < svSessions; i++ {
		self := topology.NodeID(svClientBase + i)
		cu, err := ctrlnet.NewUDP(ctrlnet.UDPConfig{
			Local: map[topology.NodeID]string{self: "127.0.0.1:0"},
			Peers: map[topology.NodeID]string{svServerNode: udp.Addr(svServerNode).String()},
		})
		if err != nil {
			w.stop()
			return nil, err
		}
		w.cudp = append(w.cudp, cu)
		cl, err := svc.NewClient(svc.ClientConfig{
			Transport: cu, Self: self, Server: svServerNode,
			Tenant: uint64(i + 1), Seed: seed*31 + int64(i) + 1,
		})
		if err != nil {
			w.stop()
			return nil, err
		}
		w.clients = append(w.clients, cl)
		hosts, err := cl.Hello()
		if err != nil {
			w.stop()
			return nil, fmt.Errorf("hello: %w", err)
		}
		w.hosts = hosts
	}
	w.setup = time.Since(t0)
	return w, nil
}

// stop ends every session, stops the server and waits for it.
func (w *svWorld) stop() error {
	var firstErr error
	for _, cl := range w.clients {
		if err := cl.Bye(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("bye: %w", err)
		}
		cl.Close()
	}
	for _, cu := range w.cudp {
		cu.Close()
	}
	w.srv.Stop()
	if err := <-w.served; err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// svPhase is one open-loop phase's outcome.
type svPhase struct {
	offered   float64
	flows     int
	latUS     []int64 // due → reply held, answered opens only
	refusedBy map[int32]int64
	timeouts  int64
	shed      int64
	otherErr  int64
	closeErr  int64
	achieved  float64
	lateP50   time.Duration
	lateMax   time.Duration
	rejected  bool // generator fell behind its schedule
	abandoned bool // open backlog passed svMaxOutstanding: the rung is overloaded
	p50, p99  time.Duration
	// Per-window figures (µs, and answered opens per process CPU second)
	// over the phase's complete windows, when windows were asked for.
	winP50, winP99, winFlowsPerCPU []float64
}

func (p *svPhase) failed() int64 { return p.timeouts + p.shed + p.otherErr + p.closeErr }

// passes reports whether the service sustained the offered rate: the
// generator kept its schedule, the backlog stayed bounded, nothing failed,
// and answers kept pace with requests.
func (p *svPhase) passes() bool {
	return !p.rejected && !p.abandoned && p.failed() == 0 && p.achieved >= svMinAchieved*p.offered
}

type svFlowResult struct {
	lat     time.Duration
	replied time.Time
	err     error
	closeE  error
	win     int // window of the flow's due time
}

// runPhase offers flows on their due schedule. The generator wakes every
// svBatch and issues every flow already due, with no per-request sleep;
// each flow's latency runs from its due time, so generator delay counts.
// A window > 0 also splits the phase into windows of that length for
// per-window latency and CPU figures.
func (w *svWorld) runPhase(flows []svFlow, rate float64, window time.Duration) (*svPhase, error) {
	res := make([]svFlowResult, len(flows))
	var wg sync.WaitGroup
	var lateness []int64
	var outstanding atomic.Int64
	p := &svPhase{offered: rate, refusedBy: map[int32]int64{}}
	start := time.Now().Add(svBatch)
	due := start
	next := 0
	// cpuMarks[k] is the process CPU time when window k began.
	var cpuMarks []time.Duration
	for b := 1; next < len(flows) && !p.abandoned; b++ {
		target := start.Add(time.Duration(b) * svBatch)
		time.Sleep(time.Until(target))
		lateness = append(lateness, int64(time.Since(target)))
		if window > 0 && target.Sub(start) >= time.Duration(len(cpuMarks))*window {
			c, err := cpuTime()
			if err != nil {
				return nil, err
			}
			cpuMarks = append(cpuMarks, c)
		}
		for next < len(flows) {
			d := due.Add(flows[next].gap)
			if d.After(target) {
				break
			}
			if outstanding.Load() > svMaxOutstanding {
				p.abandoned = true
				break
			}
			due = d
			if window > 0 {
				res[next].win = int(d.Sub(start) / window)
			}
			wg.Add(1)
			outstanding.Add(1)
			go w.flow(&flows[next], d, w.clients[next%len(w.clients)], &res[next], &outstanding, &wg)
			next++
		}
	}
	wg.Wait()

	p.flows = next
	res = res[:next]
	last := start
	// Windows that both began and ended inside the phase.
	full := len(cpuMarks) - 1
	winLat := make([][]int64, max(full, 0))
	for i := range res {
		r := &res[i]
		var ref *svc.Refused
		switch {
		case r.err == nil || errors.As(r.err, &ref) && !transientRefusal(ref.Code):
			p.latUS = append(p.latUS, r.lat.Microseconds())
			if r.win < full {
				winLat[r.win] = append(winLat[r.win], r.lat.Microseconds())
			}
			if ref != nil {
				p.refusedBy[ref.Code]++
			}
			if r.replied.After(last) {
				last = r.replied
			}
		case errors.As(r.err, &ref):
			p.shed++ // overloaded or draining: weather, not an answer
		case errors.Is(r.err, svc.ErrRPCTimeout):
			p.timeouts++
		default:
			p.otherErr++
		}
		if r.closeE != nil {
			p.closeErr++
		}
	}
	span := last.Sub(start).Seconds()
	p.achieved = ratio(float64(len(p.latUS)), span)
	s := sortedCopy(p.latUS)
	p.p50 = time.Duration(quantileSorted(s, 0.5)) * time.Microsecond
	p.p99 = time.Duration(quantileSorted(s, 0.99)) * time.Microsecond
	ls := sortedCopy(lateness)
	p.lateP50 = time.Duration(quantileSorted(ls, 0.5))
	p.lateMax = time.Duration(quantileSorted(ls, 1))
	p.rejected = p.lateP50 > svMaxLate
	for k, lat := range winLat {
		s := sortedCopy(lat)
		p.winP50 = append(p.winP50, float64(quantileSorted(s, 0.5)))
		p.winP99 = append(p.winP99, float64(quantileSorted(s, 0.99)))
		p.winFlowsPerCPU = append(p.winFlowsPerCPU, float64(len(lat))/(cpuMarks[k+1]-cpuMarks[k]).Seconds())
	}
	return p, nil
}

func transientRefusal(code int32) bool {
	return code == svc.RefuseOverloaded || code == svc.RefuseDraining
}

func (w *svWorld) flow(f *svFlow, due time.Time, cl *svc.Client, r *svFlowResult, outstanding *atomic.Int64, wg *sync.WaitGroup) {
	defer wg.Done()
	vc, err := cl.Open(f.src, f.dst, f.rate)
	outstanding.Add(-1)
	r.replied = time.Now()
	r.lat = r.replied.Sub(due)
	r.err = err
	if err != nil {
		return
	}
	if w.admits.Add(1)%svBurstEvery == 0 {
		if err := cl.Traffic(vc, svBurstCells); err != nil {
			r.closeE = err
		}
	}
	time.Sleep(f.hold)
	if err := cl.CloseVC(vc); err != nil && r.closeE == nil {
		r.closeE = err
	}
}

// checkService verifies the server's books once it has stopped.
func checkService(w *svWorld, res *result, label string) {
	if n := len(w.lan.Circuits()); n != 0 {
		res.fail("service %s: %d circuits still open after the final close", label, n)
	}
	st := w.srv.Stats()
	if st.Requests != st.AdmittedBE+st.AdmittedGtd+st.Refused {
		res.fail("service %s: %d requests but %d admitted + %d refused", label, st.Requests, st.AdmittedBE+st.AdmittedGtd, st.Refused)
	}
	if n := st.RefusedBy[svc.RefuseServerError]; n != 0 {
		res.fail("service %s: %d server-error refusals", label, n)
	}
}

// phaseFlows sizes a phase to dur at rate.
func phaseFlows(seed int64, phase int, hosts []topology.NodeID, rate float64, dur time.Duration) []svFlow {
	n := int(rate * dur.Seconds())
	if n < 200 {
		n = 200
	}
	return genFlows(seed, phase, hosts, rate, n)
}

func (res *result) addPhase(p *svPhase, label string) {
	res.attempted += int64(p.flows)
	res.failed += p.failed()
	verdict := "pass"
	switch {
	case p.rejected:
		verdict = "REJECTED: generator behind schedule"
	case p.abandoned:
		verdict = "fail: open backlog passed the limit, rung abandoned"
	case !p.passes():
		verdict = "fail"
	}
	res.note("%s: offered %.0f/s achieved %.0f/s, %d flows, open p50 %v p99 %v (within %v: %v), refused %v, timeouts %d, shed %d, errors %d, generator lateness p50 %v max %v: %s",
		label, p.offered, p.achieved, p.flows, p.p50, p.p99, svLimitP99, p.p99 <= svLimitP99, p.refusedBy,
		p.timeouts, p.shed, p.otherErr+p.closeErr, p.lateP50, p.lateMax, verdict)
}

func runService(cfg runConfig) (*result, error) {
	res := newResult()
	heap := newHeapPeak()
	var setups []float64
	var w *svWorld
	for i := 0; i < svSetups; i++ {
		x, err := startService(cfg.seed, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, x.setup.Seconds())
		if i == svSetups-1 {
			w = x
			break
		}
		if err := x.stop(); err != nil {
			return nil, err
		}
		checkService(x, res, "setup")
	}
	heap.check()
	res.e2e["setup_s"] = median(setups)

	fixedShare, ladderShare := 0.65, 0.3
	if cfg.trace {
		fixedShare, ladderShare = 0.25, 0
	}
	fixed, err := w.runPhase(phaseFlows(cfg.seed, 0, w.hosts, svFixedRate, cfg.budget(fixedShare)), svFixedRate, svWindow)
	if err != nil {
		return nil, err
	}
	res.addPhase(fixed, "fixed")
	if fixed.rejected {
		res.fail("service: fixed-rate phase rejected, generator lateness p50 %v", fixed.lateP50)
	}
	heap.check()

	// Bisection over the ladder: rung lo passed (or is below the ladder),
	// rung hi failed (or is above it).
	capacity := 0.0
	if ladderShare > 0 {
		lo, hi := -1, len(svLadder)
		probes := bits.Len(uint(len(svLadder)))
		rung := cfg.budget(ladderShare) / time.Duration(probes)
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			rate := svLadder[mid]
			p, err := w.runPhase(phaseFlows(cfg.seed, 1+mid, w.hosts, rate, rung), rate, 0)
			if err != nil {
				return nil, err
			}
			res.addPhase(p, fmt.Sprintf("ladder %.0f", rate))
			if p.passes() {
				lo = mid
			} else {
				hi = mid
			}
		}
		if lo >= 0 {
			capacity = svLadder[lo]
		}
	}
	if err := w.stop(); err != nil {
		return nil, err
	}
	checkService(w, res, "run")
	stats := clientStats(w)
	res.e2e["peak_heap_mb"] = heap.mb()
	res.e2e["host_latency_us"] = median(fixed.winP50)
	res.e2e["host_rate_per_s"] = median(fixed.winFlowsPerCPU)
	res.line("setup_s", res.e2e["setup_s"], "s", "host")
	res.line("peak_heap_mb", heap.mb(), "MB", "host")
	res.line("setup_p50_us", res.e2e["host_latency_us"], "us", "host")
	res.line("setup_p99_us", median(fixed.winP99), "us", "host")
	res.line("flows_per_cpu_s", res.e2e["host_rate_per_s"], "1/s", "host")
	res.note("fixed phase over %d windows of %v: open p50 %.0f..%.0f us, p99 %.0f..%.0f us, flows per CPU second %.0f..%.0f",
		len(fixed.winP50), svWindow, minOf(fixed.winP50), maxOf(fixed.winP50), minOf(fixed.winP99), maxOf(fixed.winP99),
		minOf(fixed.winFlowsPerCPU), maxOf(fixed.winFlowsPerCPU))
	if !cfg.trace {
		if capacity == 0 {
			res.note("service: the lowest rung, %.0f flows/s, was not sustained", svLadder[0])
		}
		res.line("capacity_fps", capacity, "flows/s", "host")
		res.note("client retransmits %d over %d RPCs", stats.retransmits, stats.rpcs)
		return res, nil
	}

	// Traced run: the same fixed-rate phase through the timing transport,
	// then the replay pass.
	tr := newTracer()
	t0 := time.Now()
	tw, err := startService(cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	flows := phaseFlows(cfg.seed, 0, tw.hosts, svFixedRate, cfg.budget(fixedShare))
	m0 := readMem()
	traced, err := tw.runPhase(flows, svFixedRate, 0)
	if err != nil {
		return nil, err
	}
	m1 := readMem()
	res.addPhase(traced, "traced fixed")
	if err := tw.stop(); err != nil {
		return nil, err
	}
	serverWall := time.Since(t0)
	tr.stack = tr.stack[:0] // the span open when Serve returned never closed
	checkService(tw, res, "traced")
	sst := tw.srv.Stats()
	cst := clientStats(tw)
	L := res.layers
	st := tw.st
	L["ctrlnet.send_ns"] = tr.meanNS(spCtrlnetSend)
	L["ctrlnet.batch_size"] = ratio(float64(st.msgs), float64(st.batches))
	L["svc.handle_ns_per_msg"] = ratio(float64(tr.agg[spSvcHandle].total), float64(st.msgs))
	L["svc.busy_frac"] = 1 - float64(st.waitNS)/float64(serverWall)
	L["svc.shed_frac"] = ratio(float64(sst.Shed), float64(sst.Requests))
	L["svc.allocs_per_flow"] = float64(m1.mallocs-m0.mallocs) / float64(len(flows))
	L["svc.tick_us"] = ratio(float64(st.tickNS), float64(st.ticks)) / 1e3
	L["svc.tick_frac"] = float64(st.tickNS) / float64(serverWall)
	L["svc.retransmit_frac"] = ratio(float64(cst.retransmits), float64(cst.rpcs))
	L["trace.overhead_frac"] = float64(traced.p50)/float64(fixed.p50) - 1
	res.line("traced setup_p50_us", float64(traced.p50)/1e3, "us", "host")
	res.line("trace overhead (traced-untraced p50)", float64(traced.p50-fixed.p50)/1e3, "us", "host")

	t1 := time.Now()
	if err := replay(cfg.seed, flows, tr, res); err != nil {
		return nil, err
	}
	tr.wall = serverWall + time.Since(t1)
	L["proto.marshal_ns"] = tr.meanNS(spProtoMarshal)
	L["proto.unmarshal_ns"] = tr.meanNS(spProtoUnmarshal)
	L["routing.shortest_legal_ns"] = tr.meanNS(spRoutingShortest)
	L["core.open_be_ns"] = tr.meanNS(spCoreOpenBE)
	L["core.reserve_ns"] = tr.meanNS(spCoreReserve)
	L["core.close_ns"] = tr.meanNS(spCoreClose)
	res.setSelfFracs(tr)
	if cfg.traceOut != "" {
		path, err := tr.writeJSONL(cfg.traceOut, spanFileName("service", cfg.seed))
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.note("spans written to %s", path)
	}
	return res, nil
}

// cpuTime is the process's user plus system CPU time: server, tenant
// sessions and the kernel's loopback work done on their behalf.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

type svClientStats struct{ retransmits, rpcs int64 }

// clientStats sums retransmits over the sessions; RPCs are every open and
// close the phases issued, plus hello and bye per session.
func clientStats(w *svWorld) svClientStats {
	var s svClientStats
	for _, cl := range w.clients {
		s.retransmits += cl.Stats().Retransmits
	}
	s.rpcs = 2*int64(len(w.clients)) + w.srv.Stats().Requests + w.srv.Stats().AdmittedBE + w.srv.Stats().AdmittedGtd
	return s
}

// replay feeds the traced phase's request sequence straight to the layers
// a request crosses — codec, routing, and core on a fresh LAN — with the
// server and sockets out of the way.
func replay(seed int64, flows []svFlow, tr *tracer, res *result) error {
	g, err := topology.Torus(4, 4, 10)
	if err != nil {
		return err
	}
	if err := topology.AttachHosts(g, 3, 1); err != nil {
		return err
	}
	lan, err := core.New(core.Config{Topology: g, FrameSlots: 128, Seed: seed})
	if err != nil {
		return err
	}
	var payload [cell.PayloadSize]byte
	admitted := 0
	for i, f := range flows {
		id := uint64(i)
		tr.setID(id)
		req := &proto.Message{Kind: proto.KindVCRequest, Epoch: 1, Initiator: id + 1, From: svIncarnation,
			Depth: int32(f.rate), Links: []proto.LinkRec{{A: int32(f.src), B: int32(f.dst)}}}
		tr.begin(spProtoMarshal, id)
		wire, err := proto.Marshal(req)
		tr.end()
		if err != nil {
			return err
		}
		tr.begin(spProtoUnmarshal, id)
		m, err := proto.Unmarshal(wire)
		tr.end()
		if err != nil {
			return err
		}
		src, dst := topology.NodeID(m.Links[0].A), topology.NodeID(m.Links[0].B)
		tr.begin(spRoutingShortest, id)
		_, err = lan.Router().ShortestLegal(src, dst)
		tr.end()
		if err != nil {
			return err
		}
		var vc cell.VCI
		if m.Depth > 0 {
			tr.begin(spCoreReserve, id)
			vc, err = lan.Reserve(src, dst, int(m.Depth))
		} else {
			tr.begin(spCoreOpenBE, id)
			vc, err = lan.OpenBestEffort(src, dst)
		}
		tr.end()
		if err != nil {
			if m.Depth > 0 {
				continue // capacity refusal: an answer, as in the server
			}
			return err
		}
		admitted++
		if admitted%svBurstEvery == 0 {
			for c := 0; c < svBurstCells; c++ {
				if err := lan.Send(vc, payload); err != nil {
					return err
				}
			}
		}
		rep := &proto.Message{Kind: proto.KindVCReply, Epoch: 1, Initiator: id + 1, From: svIncarnation, Accept: true, Depth: int32(vc)}
		tr.begin(spProtoMarshal, id)
		_, err = proto.Marshal(rep)
		tr.end()
		if err != nil {
			return err
		}
		tr.begin(spCoreClose, id)
		err = lan.Close(vc)
		tr.end()
		if err != nil {
			return err
		}
	}
	if n := len(lan.Circuits()); n != 0 {
		res.fail("service replay: %d circuits left open", n)
	}
	res.note("replay: %d requests, %d admitted", len(flows), admitted)
	return nil
}
