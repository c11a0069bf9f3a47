package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"repro/internal/bwcentral"
	"repro/internal/cell"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// The fabric workload: a radix-8, 4-pod fat-tree (48 switches, 64 hosts)
// assembled from the layers core.LAN wires together — simnet with core's
// default engine settings, up*/down* routes from routing, and guaranteed
// admission by bwcentral — but with the routing tree built
// deterministically. core.New's boot reconfiguration uses the goroutine
// runner, whose spanning tree (and so every route) varies from run to run,
// which would make the simulated results irreproducible. Hosts in pods 0–2
// carry on/off best-effort circuits and guaranteed circuits sending at
// their reserved rate; pod 3 stays idle. The circuit layout is fixed; the
// seed draws the on/off periods and the guaranteed sources' phases.
//
// The offered load is light (about 1.7 cells per slot across 48 sources)
// because up*/down* routing from one root carries every inter-pod circuit
// through the root's plane, whose links saturate long before the fabric's
// bisection does; ingress credits return at the first switch, so a
// saturated link's queue grows without bound.
const (
	fbRadix       = 8
	fbPods        = 4
	fbActivePods  = 3
	fbSlots       = 24_000 // slots per repetition
	fbFrameSlots  = 1024   // core's default frame
	fbWindow      = 32     // core's default ingress window
	fbBEPerHost   = 2
	fbGtdHosts    = 12 // active hosts that source guaranteed circuits
	fbGtdPerHost  = 2
	fbGtdRate     = 8 // cells per frame
	fbOnMean      = 25
	fbOffMean     = 1000
	fbLinkCap     = fbFrameSlots / 2 // core's default guaranteed capacity
	fbSampleEvery = 64
	fbLayoutSeed  = 0xfab41c
)

type fbCircuit struct {
	src, dst topology.NodeID
	gtd      bool
	phase    int64      // guaranteed: send when slot%interval == phase
	on       [][2]int64 // best-effort: [start, end) slots the source sends
}

type fbInputs struct {
	seed     int64
	circuits []fbCircuit
}

func genFabricInputs(seed int64, info *topology.FatTreeInfo) *fbInputs {
	layout := rand.New(rand.NewSource(fbLayoutSeed))
	rng := rand.New(rand.NewSource(seed*1_000_003 + 1))
	var active []topology.NodeID
	for p := 0; p < fbActivePods; p++ {
		active = append(active, info.Hosts[p]...)
	}
	perm := layout.Perm(len(active))
	in := &fbInputs{seed: seed}
	// Every active host terminates exactly fbBEPerHost circuits, so no
	// host link is oversubscribed on average.
	var dsts []topology.NodeID
	for j := 0; j < fbBEPerHost; j++ {
		dsts = append(dsts, active...)
	}
	layout.Shuffle(len(dsts), func(i, j int) { dsts[i], dsts[j] = dsts[j], dsts[i] })
	pickDst := func(src topology.NodeID) topology.NodeID {
		n := len(dsts) - 1
		for i := n; i >= 0; i-- {
			if dsts[i] != src {
				d := dsts[i]
				dsts[i] = dsts[n]
				dsts = dsts[:n]
				return d
			}
		}
		panic("fabric: destination pool exhausted")
	}
	interval := int64(fbFrameSlots / fbGtdRate)
	for k, pi := range perm {
		src := active[pi]
		if k < fbGtdHosts {
			for j := 0; j < fbGtdPerHost; j++ {
				in.circuits = append(in.circuits, fbCircuit{src: src, dst: pickDst(src), gtd: true, phase: rng.Int63n(interval)})
			}
			continue
		}
		for j := 0; j < fbBEPerHost; j++ {
			c := fbCircuit{src: src, dst: pickDst(src)}
			// Geometric on and off periods, starting in a random state.
			on := rng.Intn(fbOnMean+fbOffMean) < fbOnMean
			for s := int64(0); s < fbSlots; {
				mean := float64(fbOffMean)
				if on {
					mean = fbOnMean
				}
				d := int64(rng.ExpFloat64()*mean) + 1
				if on {
					c.on = append(c.on, [2]int64{s, s + d})
				}
				s += d
				on = !on
			}
			in.circuits = append(in.circuits, c)
		}
	}
	return in
}

type fbSim struct {
	g       *topology.Graph
	net     *simnet.Network
	vcs     []cell.VCI
	hosts   []topology.NodeID
	setupNS int64
}

// buildFabric builds the fat-tree network and opens every circuit; the
// tracer, when set, times each route lookup and circuit install.
func buildFabric(in *fbInputs, tr *tracer) (*fbSim, error) {
	t0 := time.Now()
	g, info, err := topology.FatTree(topology.FatTreeConfig{Radix: fbRadix, Pods: fbPods})
	if err != nil {
		return nil, err
	}
	net, err := simnet.New(simnet.Config{
		Topology:      g,
		Switch:        switchnode.Config{FrameSlots: fbFrameSlots, Seed: in.seed},
		IngressWindow: fbWindow,
	})
	if err != nil {
		return nil, err
	}
	// The up*/down* orientation is rooted at the first spine, as a
	// reconfiguration electing the highest-level switch would root it.
	router, err := routing.NewRouter(g, info.Spines[0], nil)
	if err != nil {
		return nil, err
	}
	central, err := bwcentral.New(bwcentral.Config{Topology: g, Router: router, LinkCapacity: fbLinkCap})
	if err != nil {
		return nil, err
	}
	x := &fbSim{g: g, net: net, hosts: g.Hosts()}
	for i, c := range in.circuits {
		vc := cell.VCI(i + 1)
		if tr != nil {
			tr.setID(uint64(i))
		}
		var path []topology.NodeID
		if c.gtd {
			res, err := central.Request(c.src, c.dst, fbGtdRate)
			if err != nil {
				return nil, fmt.Errorf("fabric: admit circuit %d: %w", i, err)
			}
			path = res.Path
		} else {
			if tr != nil {
				tr.begin(spRoutingShortest, uint64(i))
			}
			path, err = router.ShortestLegal(c.src, c.dst)
			if tr != nil {
				tr.end()
			}
			if err != nil {
				return nil, fmt.Errorf("fabric: route circuit %d: %w", i, err)
			}
		}
		if tr != nil {
			tr.begin(spSimnetOpen, uint64(i))
		}
		if c.gtd {
			_, err = net.OpenGuaranteed(vc, path, fbGtdRate)
		} else {
			_, err = net.OpenBestEffort(vc, path)
		}
		if tr != nil {
			tr.end()
		}
		if err != nil {
			return nil, fmt.Errorf("fabric: open circuit %d: %w", i, err)
		}
		x.vcs = append(x.vcs, vc)
	}
	x.setupNS = int64(time.Since(t0))
	return x, nil
}

type fabricMode struct {
	tr     *tracer
	timed  bool
	allocs bool
	heap   *heapPeak
	// sample collects the traced pass's queue and refusal statistics.
	sample   bool
	sendA    allocCounter
	stepA    allocCounter
	sends    int64
	refused  int64
	buffered int64
	inflight int64
	samples  int64
}

// run plays the arrival schedule for fbSlots slots and returns the wall
// time and the per-slot host times.
func (x *fbSim) run(in *fbInputs, m *fabricMode) (time.Duration, []int64) {
	var slotNS []int64
	if m.timed {
		slotNS = make([]int64, fbSlots)
	}
	next := make([]int, len(in.circuits)) // index of the next on-interval
	interval := int64(fbFrameSlots / fbGtdRate)
	var payload [cell.PayloadSize]byte
	// For refusal sampling: cells handed to each source host so far, and
	// the host's injected count, give the cells waiting for credit.
	var offered map[topology.NodeID]int64
	if m.sample {
		offered = make(map[topology.NodeID]int64)
	}
	var m0, m1, m2 memSample
	start := time.Now()
	for s := int64(0); s < fbSlots; s++ {
		var t0 time.Time
		if m.timed {
			t0 = time.Now()
		}
		if m.tr != nil {
			m.tr.setID(uint64(s))
		}
		allocWin := m.allocs && s >= fbSlots/2 && s < fbSlots/2+2000
		if allocWin {
			m0 = readMem()
		}
		for i := range in.circuits {
			c := &in.circuits[i]
			if c.gtd {
				if s%interval != c.phase {
					continue
				}
			} else {
				for next[i] < len(c.on) && c.on[next[i]][1] <= s {
					next[i]++
				}
				if next[i] == len(c.on) || c.on[next[i]][0] > s {
					continue
				}
			}
			if m.sample && !c.gtd {
				st, _ := x.net.HostStats(c.src)
				m.sends++
				if offered[c.src] > st.CellsSent {
					m.refused++
				}
				offered[c.src]++
			}
			payload[0] = byte(s)
			var err error
			if m.tr != nil {
				m.tr.begin(spSimnetSend, uint64(s))
				err = x.net.Send(x.vcs[i], payload)
				m.tr.end()
			} else {
				err = x.net.Send(x.vcs[i], payload)
			}
			if err != nil {
				panic(fmt.Sprintf("fabric: send on open circuit %d: %v", x.vcs[i], err))
			}
		}
		if allocWin {
			m1 = readMem()
			m.sendA.add(m0, m1, 1)
		}
		if m.tr != nil {
			m.tr.begin(spSimnetStep, uint64(s))
			x.net.Step()
			m.tr.end()
		} else {
			x.net.Step()
		}
		if allocWin {
			m2 = readMem()
			m.stepA.add(m1, m2, 1)
		}
		if m.timed {
			slotNS[s] = int64(time.Since(t0))
		}
		if m.sample && s%fbSampleEvery == 0 {
			snap := x.net.Snapshot()
			m.buffered += snap.Buffered
			m.inflight += snap.InFlight
			m.samples++
		}
		if m.heap != nil && (s+1)%(fbSlots/4) == 0 {
			m.heap.check()
		}
	}
	return time.Since(start), slotNS
}

type fbSimValues struct {
	throughput float64
	p99        int64
	delivered  int64
	digest     uint64
}

// values summarizes the simulated results; the digest covers network
// counters and every host's counters and latency summary.
func (x *fbSim) values() fbSimValues {
	h := fnv.New64a()
	put := func(vs ...int64) {
		for _, v := range vs {
			var b [8]byte
			for i := range b {
				b[i] = byte(uint64(v) >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	ns := x.net.Stats()
	put(ns.DeliveredCells, ns.DroppedInFlight, ns.DroppedReroute, ns.Slots)
	all := &metrics.Histogram{} // best-effort latency; guaranteed cells wait for their frame slots
	hosts := append([]topology.NodeID(nil), x.hosts...)
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	for _, id := range hosts {
		st, ok := x.net.HostStats(id)
		if !ok {
			continue
		}
		put(int64(id), st.CellsSent, st.CellsReceived, st.OutOfOrder)
		for _, cl := range []cell.Class{cell.BestEffort, cell.Guaranteed} {
			if hist := st.LatencyByClass[cl]; hist != nil {
				put(int64(hist.Count()), hist.Sum(), hist.Max())
				if cl == cell.BestEffort {
					all.Merge(hist)
				}
			}
		}
	}
	p99 := all.Quantile(0.99)
	put(p99)
	return fbSimValues{
		throughput: float64(ns.DeliveredCells) / float64(fbSlots) / float64(len(x.hosts)),
		p99:        p99,
		delivered:  ns.DeliveredCells,
		digest:     h.Sum64(),
	}
}

func runFabric(cfg runConfig) (*result, error) {
	res := newResult()
	_, info, err := topology.FatTree(topology.FatTreeConfig{Radix: fbRadix, Pods: fbPods})
	if err != nil {
		return nil, err
	}
	in := genFabricInputs(cfg.seed, info)

	heap := newHeapPeak()
	ref, err := buildFabric(in, nil)
	if err != nil {
		return nil, err
	}
	ref.run(in, &fabricMode{heap: heap})
	want := ref.values()
	setups := []float64{float64(ref.setupNS) / 1e9}
	check := func(x *fbSim, rep int) {
		res.attempted++
		if snap := x.net.Snapshot(); !snap.Conserved() {
			res.fail("fabric: cell conservation broken in repetition %d: %+v", rep, snap)
		}
		if got := x.values(); got != want {
			res.fail("fabric: repetition %d simulated results %+v differ from %+v", rep, got, want)
		}
	}
	check(ref, 0)

	share := 1.0
	if cfg.trace {
		share = 0.4
	}
	times := &repTimes{slots: fbSlots}
	end := time.Now().Add(cfg.budget(share))
	for rep := 1; len(times.rates) < minReps || time.Now().Before(end); rep++ {
		x, err := buildFabric(in, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, float64(x.setupNS)/1e9)
		wall, slotNS := x.run(in, &fabricMode{timed: true})
		check(x, rep)
		times.add(wall, slotNS)
	}
	rate := median(times.rates)
	res.e2e["setup_s"] = median(setups)
	res.e2e["peak_heap_mb"] = heap.mb()
	res.e2e["host_rate_per_s"] = rate
	res.e2e["host_latency_us"] = 1e6 / rate
	res.line("setup_s", res.e2e["setup_s"], "s", "host")
	res.line("peak_heap_mb", heap.mb(), "MB", "host")
	res.line("slots_per_s", rate, "1/s", "host")
	res.line("slot_p50_us", median(times.p50US), "us", "host")
	res.line("slot_p99_us", median(times.p99US), "us", "host")
	res.line("sim_throughput", want.throughput, "cells/slot/host", "sim")
	res.line("sim_p99_lat_slots", float64(want.p99), "slots", "sim")
	res.note("repetition rates %.0f..%.0f slots/s", minOf(times.rates), maxOf(times.rates))
	res.note("fabric: %d repetitions of %d slots, %d circuits, simulated digest %016x", len(times.rates), fbSlots, len(in.circuits), want.digest)
	if !cfg.trace {
		return res, nil
	}

	tr := newTracer()
	var tracedRates []float64
	end = time.Now().Add(cfg.budget(0.45))
	var sampled *fabricMode
	for rep := 1; len(tracedRates) < 2 || time.Now().Before(end); rep++ {
		t0 := time.Now()
		x, err := buildFabric(in, tr)
		if err != nil {
			return nil, err
		}
		m := &fabricMode{tr: tr, sample: sampled == nil}
		wall, _ := x.run(in, m)
		tr.wall += time.Since(t0)
		check(x, rep)
		tracedRates = append(tracedRates, fbSlots/wall.Seconds())
		if sampled == nil {
			sampled = m
		}
	}
	ma := &fabricMode{allocs: true}
	xa, err := buildFabric(in, nil)
	if err != nil {
		return nil, err
	}
	xa.run(in, ma)
	check(xa, -1)

	L := res.layers
	L["simnet.step_ns"] = tr.meanNS(spSimnetStep)
	L["simnet.send_ns"] = tr.meanNS(spSimnetSend)
	L["simnet.open_ns"] = tr.meanNS(spSimnetOpen)
	L["routing.shortest_legal_ns"] = tr.meanNS(spRoutingShortest)
	L["simnet.allocs_per_slot"] = float64(ma.sendA.mallocs+ma.stepA.mallocs) / float64(ma.stepA.calls)
	L["simnet.send_refused_frac"] = ratio(float64(sampled.refused), float64(sampled.sends))
	L["simnet.delivered_per_slot"] = float64(want.delivered) / fbSlots
	L["simnet.buffered_cells"] = ratio(float64(sampled.buffered), float64(sampled.samples))
	L["simnet.inflight_cells"] = ratio(float64(sampled.inflight), float64(sampled.samples))
	L["sim_throughput"] = want.throughput
	L["sim_p99_lat_slots"] = float64(want.p99)
	tracedRate := median(tracedRates)
	L["trace.overhead_frac"] = rate/tracedRate - 1
	res.setSelfFracs(tr)
	_, sendBytes := ma.sendA.perCall()
	_, stepBytes := ma.stepA.perCall()
	res.line("traced slots_per_s", tracedRate, "1/s", "host")
	res.line("trace overhead (traced-untraced)", 1/tracedRate*1e6-1/rate*1e6, "us/slot", "host")
	res.note("fabric bytes allocated per slot: %.1f in sends, %.1f in Step", sendBytes, stepBytes)
	if cfg.traceOut != "" {
		path, err := tr.writeJSONL(cfg.traceOut, spanFileName("fabric", cfg.seed))
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.note("spans written to %s", path)
	}
	return res, nil
}
