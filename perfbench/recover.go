package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cell"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// The recover workload: a 4×4 torus (two hosts per switch) under steady
// traffic while a seeded schedule of link cuts and heals and a switch
// crash and reboot runs through recovery.Injector, with a recovery.Loop on
// its default configuration (the reliable reconfiguration runner, default
// skeptics: a link is believed back up after 100 ms, 10,000 slots, of
// clean probes) doing all detection, reconfiguration and rerouting.
const (
	rcRows, rcCols = 4, 4
	rcHostsPer     = 2
	rcSlots        = 40_000 // slots per repetition; the last fault heals by slot 24,000
	rcFrameSlots   = 1024
	rcWindow       = 32
	rcBECircuits   = 24
	rcBEEvery      = 16 // a best-effort source sends one cell every rcBEEvery slots
	rcGtdCircuits  = 6
	rcGtdRate      = 8
	rcLinkFaults   = 2
	// reactCheckNS: a probe-only Tick of this loop takes about 2 µs.
	reactCheckNS = 20_000
	rcLayoutSeed = 0x2ec0e2
)

type rcCircuit struct {
	src, dst topology.NodeID
	gtd      bool
	phase    int64
}

type rcInputs struct {
	seed     int64
	circuits []rcCircuit
	faults   []recovery.FaultEvent
}

func rcTopology() (*topology.Graph, error) {
	g, err := topology.Torus(rcRows, rcCols, 1)
	if err != nil {
		return nil, err
	}
	if err := topology.AttachHosts(g, rcHostsPer, 1); err != nil {
		return nil, err
	}
	return g, nil
}

func genRecoverInputs(seed int64, g *topology.Graph) *rcInputs {
	// The layout — circuits, the crashed switch, the cut links — is fixed;
	// the seed draws when each fault strikes and heals, and the sources'
	// phases.
	layout := rand.New(rand.NewSource(rcLayoutSeed))
	rng := rand.New(rand.NewSource(seed*1_000_003 + 2))
	in := &rcInputs{seed: seed}
	hosts := g.Hosts()
	// The crashed switch strands its own hosts until it reboots; keep the
	// measured circuits off them so every outage is one the loop can repair.
	switches := g.Switches()
	victim := switches[layout.Intn(len(switches))]
	var usable []topology.NodeID
	for _, h := range hosts {
		if nb := g.Neighbors(h); len(nb) == 1 && nb[0] == victim {
			continue
		}
		usable = append(usable, h)
	}
	pick := func() (topology.NodeID, topology.NodeID) {
		s := usable[layout.Intn(len(usable))]
		for {
			if d := usable[layout.Intn(len(usable))]; d != s {
				return s, d
			}
		}
	}
	for i := 0; i < rcBECircuits; i++ {
		s, d := pick()
		in.circuits = append(in.circuits, rcCircuit{src: s, dst: d, phase: int64(rng.Intn(rcBEEvery))})
	}
	interval := int64(rcFrameSlots / rcGtdRate)
	for i := 0; i < rcGtdCircuits; i++ {
		s, d := pick()
		in.circuits = append(in.circuits, rcCircuit{src: s, dst: d, gtd: true, phase: rng.Int63n(interval)})
	}
	var links []topology.Link
	for _, l := range g.Links() {
		if g.SwitchOnly(l) && l.A != victim && l.B != victim {
			links = append(links, l)
		}
	}
	perm := layout.Perm(len(links))
	for i := 0; i < rcLinkFaults; i++ {
		at := int64(2000 + rng.Intn(8000))
		in.faults = append(in.faults,
			recovery.CutLink(at, links[perm[i]].ID),
			recovery.HealLink(at+int64(1000+rng.Intn(4000)), links[perm[i]].ID))
	}
	at := int64(10_000 + rng.Intn(8000))
	in.faults = append(in.faults,
		recovery.CrashSwitch(at, victim),
		recovery.RebootSwitch(at+int64(1000+rng.Intn(5000)), victim))
	return in
}

type rcSim struct {
	net     *simnet.Network
	loop    *recovery.Loop
	inj     *recovery.Injector
	vcs     []cell.VCI
	hosts   []topology.NodeID
	setupNS int64
}

func buildRecover(in *rcInputs, tr *tracer) (*rcSim, error) {
	t0 := time.Now()
	g, err := rcTopology()
	if err != nil {
		return nil, err
	}
	net, err := simnet.New(simnet.Config{
		Topology:      g,
		Switch:        switchnode.Config{FrameSlots: rcFrameSlots, Seed: in.seed},
		IngressWindow: rcWindow,
	})
	if err != nil {
		return nil, err
	}
	router, err := routing.NewRouter(g, g.Switches()[0], nil)
	if err != nil {
		return nil, err
	}
	x := &rcSim{net: net, hosts: g.Hosts()}
	for i, c := range in.circuits {
		vc := cell.VCI(i + 1)
		if tr != nil {
			tr.setID(uint64(i))
			tr.begin(spRoutingShortest, uint64(i))
		}
		path, err := router.ShortestLegal(c.src, c.dst)
		if tr != nil {
			tr.end()
		}
		if err != nil {
			return nil, fmt.Errorf("recover: route circuit %d: %w", i, err)
		}
		if tr != nil {
			tr.begin(spSimnetOpen, uint64(i))
		}
		if c.gtd {
			_, err = net.OpenGuaranteed(vc, path, rcGtdRate)
		} else {
			_, err = net.OpenBestEffort(vc, path)
		}
		if tr != nil {
			tr.end()
		}
		if err != nil {
			return nil, fmt.Errorf("recover: open circuit %d: %w", i, err)
		}
		x.vcs = append(x.vcs, vc)
	}
	x.loop, err = recovery.New(recovery.Config{Net: net})
	if err != nil {
		return nil, err
	}
	x.inj = recovery.NewInjector(in.faults)
	x.setupNS = int64(time.Since(t0))
	return x, nil
}

type recoverMode struct {
	tr      *tracer
	timed   bool
	heap    *heapPeak
	reactNS int64
	reacts  int64
}

func (x *rcSim) run(in *rcInputs, m *recoverMode) (time.Duration, []int64) {
	var slotNS []int64
	if m.timed {
		slotNS = make([]int64, rcSlots)
	}
	interval := int64(rcFrameSlots / rcGtdRate)
	var payload [cell.PayloadSize]byte
	var prev recovery.Stats
	start := time.Now()
	for s := int64(0); s < rcSlots; s++ {
		var t0 time.Time
		if m.timed {
			t0 = time.Now()
		}
		x.inj.Apply(x.net)
		if m.tr != nil {
			m.tr.setID(uint64(s))
			m.tr.begin(spRecoveryTick, uint64(s))
			x.loop.Tick()
			// A Tick that launched a reconfiguration round or a repair pass
			// takes far longer than a probe-only Tick; only those pay for the
			// Stats call that confirms the work.
			if d := m.tr.end(); d > reactCheckNS {
				st := x.loop.Stats()
				if st.ReconfigRounds != prev.ReconfigRounds || st.Reroutes+st.FailedReroutes != prev.Reroutes+prev.FailedReroutes {
					m.reactNS += d
					m.reacts++
				}
				prev = st
			}
		} else {
			x.loop.Tick()
		}
		for i := range in.circuits {
			c := &in.circuits[i]
			every := int64(rcBEEvery)
			if c.gtd {
				every = interval
			}
			if s%every != c.phase {
				continue
			}
			payload[0] = byte(s)
			if err := x.net.Send(x.vcs[i], payload); err != nil {
				panic(fmt.Sprintf("recover: send on open circuit %d: %v", x.vcs[i], err))
			}
		}
		if m.tr != nil {
			m.tr.begin(spSimnetStep, uint64(s))
			x.net.Step()
			m.tr.end()
		} else {
			x.net.Step()
		}
		if m.timed {
			slotNS[s] = int64(time.Since(t0))
		}
		if m.heap != nil && (s+1)%(rcSlots/4) == 0 {
			m.heap.check()
		}
	}
	return time.Since(start), slotNS
}

type rcValues struct {
	throughput float64
	p99        int64
	outage     int64
	incidents  int
}

// check verifies the repetition's end state and returns its simulated
// results: every incident repaired, nothing left unrouted, cells conserved.
func (x *rcSim) check(res *result, rep int) rcValues {
	res.attempted++
	if !x.inj.Done() {
		res.fail("recover: repetition %d: %d fault events never fired", rep, x.inj.Remaining())
	}
	if snap := x.net.Snapshot(); !snap.Conserved() {
		res.fail("recover: repetition %d: cell conservation broken: %+v", rep, snap)
	}
	st := x.loop.Stats()
	if st.UnroutedAtEnd != 0 {
		res.fail("recover: repetition %d: %d circuits unrouted at the end", rep, st.UnroutedAtEnd)
	}
	var outages []int64
	incs := x.loop.Incidents()
	for _, inc := range incs {
		if inc.RepairSlot < 0 {
			res.fail("recover: repetition %d: %s incident never repaired", rep, inc.Kind)
			continue
		}
		outages = append(outages, inc.OutageSlots())
	}
	sort.Slice(outages, func(i, j int) bool { return outages[i] < outages[j] })
	all := &metrics.Histogram{}
	for _, h := range x.hosts {
		if hs, ok := x.net.HostStats(h); ok {
			if l := hs.LatencyByClass[cell.BestEffort]; l != nil {
				all.Merge(l)
			}
		}
	}
	v := rcValues{
		throughput: float64(x.net.Stats().DeliveredCells) / rcSlots / float64(len(x.hosts)),
		p99:        all.Quantile(0.99),
		incidents:  len(incs),
	}
	if n := len(outages); n > 0 {
		v.outage = outages[(n-1)/2]
	}
	return v
}

func runRecover(cfg runConfig) (*result, error) {
	res := newResult()
	g, err := rcTopology()
	if err != nil {
		return nil, err
	}
	in := genRecoverInputs(cfg.seed, g)

	heap := newHeapPeak()
	ref, err := buildRecover(in, nil)
	if err != nil {
		return nil, err
	}
	ref.run(in, &recoverMode{heap: heap})
	want := ref.check(res, 0)
	setups := []float64{float64(ref.setupNS) / 1e9}

	share := 1.0
	if cfg.trace {
		share = 0.45
	}
	times := &repTimes{slots: rcSlots}
	end := time.Now().Add(cfg.budget(share))
	for rep := 1; len(times.rates) < minReps || time.Now().Before(end); rep++ {
		x, err := buildRecover(in, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, float64(x.setupNS)/1e9)
		wall, slotNS := x.run(in, &recoverMode{timed: true})
		x.check(res, rep)
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
	res.line("sim_outage_slots", float64(want.outage), "slots", "sim")
	res.line("sim_throughput", want.throughput, "cells/slot/host", "sim")
	res.line("sim_p99_lat_slots", float64(want.p99), "slots", "sim")
	res.note("repetition rates %.0f..%.0f slots/s", minOf(times.rates), maxOf(times.rates))
	res.note("recover: %d repetitions of %d slots, %d fault events, %d incidents", len(times.rates), rcSlots, len(in.faults), want.incidents)
	if !cfg.trace {
		return res, nil
	}

	tr := newTracer()
	m := &recoverMode{tr: tr}
	var tracedRates []float64
	var x *rcSim
	end = time.Now().Add(cfg.budget(0.45))
	for rep := 1; len(tracedRates) < 1 || time.Now().Before(end); rep++ {
		t0 := time.Now()
		x, err = buildRecover(in, tr)
		if err != nil {
			return nil, err
		}
		wall, _ := x.run(in, m)
		tr.wall += time.Since(t0)
		x.check(res, rep)
		tracedRates = append(tracedRates, rcSlots/wall.Seconds())
	}
	st := x.loop.Stats()
	incs := x.loop.Incidents()
	var lag, reconf float64
	nLag := 0
	for _, inc := range incs {
		if inc.HardwareSlot >= 0 {
			lag += float64(inc.DetectionLagSlots())
			nLag++
		}
		reconf += float64(inc.ReconfigSlots)
	}
	L := res.layers
	L["recovery.tick_ns"] = tr.meanNS(spRecoveryTick)
	L["recovery.react_ms"] = ratio(float64(m.reactNS), float64(m.reacts)) / 1e6
	L["simnet.step_ns"] = tr.meanNS(spSimnetStep)
	L["simnet.open_ns"] = tr.meanNS(spSimnetOpen)
	L["routing.shortest_legal_ns"] = tr.meanNS(spRoutingShortest)
	L["recovery.detect_lag_slots"] = ratio(lag, float64(nLag))
	L["recovery.reconfig_slots"] = ratio(reconf, float64(len(incs)))
	L["reconfig.rounds_per_incident"] = ratio(float64(st.ReconfigRounds), float64(len(incs)))
	L["reconfig.msgs_per_round"] = ratio(float64(st.ReconfigMsgs), float64(st.ReconfigRounds))
	L["recovery.failed_reroute_frac"] = ratio(float64(st.FailedReroutes), float64(st.Reroutes+st.FailedReroutes))
	L["sim_outage_slots"] = float64(want.outage)
	L["sim_throughput"] = want.throughput
	L["sim_p99_lat_slots"] = float64(want.p99)
	tracedRate := median(tracedRates)
	L["trace.overhead_frac"] = rate/tracedRate - 1
	res.setSelfFracs(tr)
	res.line("traced slots_per_s", tracedRate, "1/s", "host")
	res.line("trace overhead (traced-untraced)", 1/tracedRate*1e6-1/rate*1e6, "us/slot", "host")
	if cfg.traceOut != "" {
		path, err := tr.writeJSONL(cfg.traceOut, spanFileName("recover", cfg.seed))
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.note("spans written to %s", path)
	}
	return res, nil
}
