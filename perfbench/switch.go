package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/cell"
	"repro/internal/matching"
	"repro/internal/pim"
	"repro/internal/sched"
	"repro/internal/switchnode"
)

// The switch workload: one 16×16 switch with the default per-VC buffers
// and PIM-3, fed bursty best-effort arrivals with mild output hotspots at
// about 0.9 load over 2,048 VCs (8 per input/output pair), plus a few
// reserved guaranteed cells per frame. The benchmark calls EnqueueBestEffort,
// EnqueueGuaranteed and Step directly. The layout (hot outputs, reserved
// pairs) is fixed; the seed draws every burst: when it starts, its circuit
// and its length.
const (
	swPorts       = 16
	swVCsPerPair  = 8
	swVCs         = swPorts * swPorts * swVCsPerPair
	swSlots       = 60_000 // slots per repetition
	swLoad        = 0.88   // best-effort cells per input per slot
	swHotLoad     = 0.94   // load offered to each hot output
	swHotOutputs  = 4      // outputs 0, 4, 8 and 12
	swBurstMean   = 16     // mean best-effort burst length (cells)
	swBufferLimit = 64     // cells per circuit queue
	swGtdRate     = 4      // reserved cells per frame per guaranteed pair
	swGtdVCBase   = 1 << 20
	swMaxLatency  = 1 << 16
)

// swInputs is the seeded arrival schedule, generated once per run: the
// arrivals of slot s are arrivals[start[s]:start[s+1]], each a VC index
// whose input, output and VCI follow from swVC.
type swInputs struct {
	start    []int32
	arrivals []uint16
	gtdOut   [swPorts]int // guaranteed pair: input i reserves output gtdOut[i]
	gtdPhase [swPorts]int64
	seed     int64
}

func swVC(idx uint16) (in, out int, vc cell.VCI) {
	pair := int(idx) / swVCsPerPair
	return pair / swPorts, pair % swPorts, cell.VCI(idx) + 1
}

func genSwitchInputs(seed int64) *swInputs {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 3))
	wHot := swHotLoad / (swPorts * swLoad)
	wCold := (1 - swHotOutputs*wHot) / (swPorts - swHotOutputs)
	cum := make([]float64, swPorts)
	acc := 0.0
	for o := 0; o < swPorts; o++ {
		if o%(swPorts/swHotOutputs) == 0 {
			acc += wHot
		} else {
			acc += wCold
		}
		cum[o] = acc
	}
	pickOut := func() int {
		u := rng.Float64() * acc
		for o, c := range cum {
			if u < c {
				return o
			}
		}
		return swPorts - 1
	}
	// On/off sources: an idle input starts a burst with probability q per
	// slot; a burst ends after each cell with probability 1/swBurstMean.
	q := 1 / (1 + swBurstMean*(1-swLoad)/swLoad)
	in := &swInputs{start: make([]int32, swSlots+1), seed: seed}
	remaining := make([]int, swPorts)
	cur := make([]uint16, swPorts)
	for s := 0; s < swSlots; s++ {
		in.start[s] = int32(len(in.arrivals))
		for i := 0; i < swPorts; i++ {
			if remaining[i] == 0 {
				if rng.Float64() >= q {
					continue
				}
				o := pickOut()
				cur[i] = uint16((i*swPorts+o)*swVCsPerPair + rng.Intn(swVCsPerPair))
				remaining[i] = 1
			}
			in.arrivals = append(in.arrivals, cur[i])
			if rng.Float64() < 1.0/swBurstMean {
				remaining[i] = 0
			}
		}
	}
	in.start[swSlots] = int32(len(in.arrivals))
	for i := 0; i < swPorts; i++ {
		in.gtdOut[i] = (i + 7) % swPorts
		in.gtdPhase[i] = int64(i * 16)
	}
	return in
}

// swSim holds one repetition's switch and its simulated results.
type swSim struct {
	sw      *switchnode.Switch
	seq     []uint64
	gtdSeq  [swPorts]uint64
	lat     []int64 // best-effort latency histogram, index = slots
	digest  uint64
	occSum  int64
	slotNS  []int64
	setupNS int64
}

// timedScheduler wraps the default PIM-3 scheduler: in the traced pass it
// times every Schedule call as a child span of Step; in the quality pass
// it compares each matching with a maximum matching of the same requests.
type timedScheduler struct {
	inner     sched.Scheduler
	tr        *tracer
	quality   bool
	matched   int64
	matchable int64
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Schedule(r *matching.Requests) sched.Result {
	if t.quality {
		t.matchable += int64(matching.HopcroftKarp(r).Size())
	}
	if t.tr != nil {
		t.tr.begin(spSchedSchedule, t.tr.cur)
	}
	res := t.inner.Schedule(r)
	if t.tr != nil {
		t.tr.end()
	}
	t.matched += int64(res.Matched)
	return res
}

func newSwitchSim(in *swInputs, s sched.Scheduler) (*swSim, error) {
	t0 := time.Now()
	cfg := switchnode.Config{N: swPorts, BufferLimit: swBufferLimit, Seed: in.seed, Scheduler: s}
	sw, err := switchnode.New(cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < swPorts; i++ {
		if err := sw.Reserve(i, in.gtdOut[i], swGtdRate); err != nil {
			return nil, err
		}
	}
	setup := time.Since(t0)
	return &swSim{
		sw:      sw,
		seq:     make([]uint64, swVCs),
		lat:     make([]int64, swMaxLatency+1),
		slotNS:  make([]int64, swSlots),
		setupNS: int64(setup),
	}, nil
}

// switchMode selects what a repetition measures besides the simulation.
type switchMode struct {
	tr     *tracer   // traced pass: spans around every call
	allocs bool      // allocation pass: exact MemStats windows
	heap   *heapPeak // heap checkpoints at quarter points
	timed  bool      // record per-slot host time
	enqA   allocCounter
	stepA  allocCounter
}

// run plays the whole arrival schedule through the switch.
func (x *swSim) run(in *swInputs, m *switchMode) time.Duration {
	h := fnv.New64a()
	var buf [8]byte
	mix := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	sw := x.sw
	gtdEvery := int64(1024 / swGtdRate)
	var m0, m1, m2 memSample
	start := time.Now()
	for s := 0; s < swSlots; s++ {
		slot := int64(s)
		var t0 time.Time
		if m.timed {
			t0 = time.Now()
		}
		if m.tr != nil {
			m.tr.setID(uint64(s))
		}
		// Allocation windows cover a 3,000-slot stretch from the middle of
		// the schedule, after every lazy path has run.
		allocWin := m.allocs && s >= swSlots/2 && s < swSlots/2+3000
		if allocWin {
			m0 = readMem()
		}
		lo, hi := in.start[s], in.start[s+1]
		for _, idx := range in.arrivals[lo:hi] {
			i, o, vc := swVC(idx)
			c := cell.Cell{VC: vc, Class: cell.BestEffort, Stamp: cell.Stamp{EnqueuedAt: slot, Seq: x.seq[idx]}}
			x.seq[idx]++
			if m.tr != nil {
				m.tr.begin(spBufferEnqueue, uint64(s))
				sw.EnqueueBestEffort(i, c, o)
				m.tr.end()
			} else {
				sw.EnqueueBestEffort(i, c, o)
			}
		}
		for i := 0; i < swPorts; i++ {
			if slot%gtdEvery == in.gtdPhase[i] {
				c := cell.Cell{VC: swGtdVCBase + cell.VCI(i), Class: cell.Guaranteed, Stamp: cell.Stamp{EnqueuedAt: slot, Seq: x.gtdSeq[i]}}
				x.gtdSeq[i]++
				sw.EnqueueGuaranteed(i, c, in.gtdOut[i])
			}
		}
		if allocWin {
			m1 = readMem()
			m.enqA.add(m0, m1, int64(hi-lo))
		}
		var deps []switchnode.Departure
		if m.tr != nil {
			m.tr.begin(spSwitchStep, uint64(s))
			deps = sw.Step()
			m.tr.end()
		} else {
			deps = sw.Step()
		}
		if allocWin {
			m2 = readMem()
			m.stepA.add(m1, m2, 1)
		}
		for _, d := range deps {
			l := slot + 1 - d.Cell.Stamp.EnqueuedAt
			if l > swMaxLatency {
				l = swMaxLatency
			}
			if !d.Guaranteed {
				x.lat[l]++
			}
			mix(uint64(d.Output)<<40 | uint64(d.Cell.VC)<<8 | uint64(l&0xff))
			mix(d.Cell.Stamp.Seq)
		}
		x.occSum += int64(sw.Buffered())
		if m.timed {
			x.slotNS[s] = int64(time.Since(t0))
		}
		if m.heap != nil && (s+1)%(swSlots/4) == 0 {
			m.heap.check()
		}
	}
	wall := time.Since(start)
	st := sw.Stats()
	mix(uint64(st.ArrivedBestEffort))
	mix(uint64(st.DroppedBestEffort))
	mix(uint64(st.DepartedBestEffort))
	mix(uint64(st.DepartedGuaranteed))
	mix(uint64(st.PIMIterationsTotal))
	x.digest = h.Sum64()
	return wall
}

// swSimValues are the simulated results of one repetition.
type swSimValues struct {
	throughput float64
	p99        int64
	digest     uint64
}

func (x *swSim) values() swSimValues {
	st := x.sw.Stats()
	dep := st.DepartedBestEffort + st.DepartedGuaranteed
	var total, acc int64
	for _, n := range x.lat {
		total += n
	}
	p99 := int64(0)
	for l, n := range x.lat {
		acc += n
		if float64(acc) >= 0.99*float64(total) {
			p99 = int64(l)
			break
		}
	}
	return swSimValues{
		throughput: float64(dep) / float64(swSlots) / swPorts,
		p99:        p99,
		digest:     x.digest,
	}
}

// conserved checks the switch's cell accounting: every accepted cell has
// departed or is still buffered.
func (x *swSim) conserved() bool {
	st := x.sw.Stats()
	in := st.ArrivedBestEffort - st.DroppedBestEffort + st.ArrivedGuaranteed - st.DroppedGuaranteed
	return in == st.DepartedBestEffort+st.DepartedGuaranteed+int64(x.sw.Buffered())
}

func runSwitch(cfg runConfig) (*result, error) {
	res := newResult()
	in := genSwitchInputs(cfg.seed)
	defaultSched := func() sched.Scheduler { return sched.NewPIM(cfg.seed, pim.DefaultIterations) }

	// Repetition 0 warms caches and takes heap checkpoints; it is the
	// reference every later repetition's simulated results must match.
	heap := newHeapPeak()
	ref, err := newSwitchSim(in, nil)
	if err != nil {
		return nil, err
	}
	ref.run(in, &switchMode{heap: heap})
	want := ref.values()
	res.attempted++
	if !ref.conserved() {
		res.fail("switch: cell conservation broken in repetition 0")
	}
	setups := []float64{float64(ref.setupNS) / 1e9}

	check := func(x *swSim, rep int) {
		res.attempted++
		if !x.conserved() {
			res.fail("switch: cell conservation broken in repetition %d", rep)
		}
		if got := x.values(); got != want {
			res.fail("switch: repetition %d simulated results %+v differ from %+v", rep, got, want)
		}
	}
	share := 1.0
	if cfg.trace {
		share = 0.4
	}
	// Untraced repetitions until the budget is spent.
	times := &repTimes{slots: swSlots}
	end := time.Now().Add(cfg.budget(share))
	for rep := 1; len(times.rates) < minReps || time.Now().Before(end); rep++ {
		x, err := newSwitchSim(in, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, float64(x.setupNS)/1e9)
		wall := x.run(in, &switchMode{timed: true})
		check(x, rep)
		times.add(wall, x.slotNS)
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
	res.line("sim_throughput", want.throughput, "cells/slot/port", "sim")
	res.line("sim_p99_lat_slots", float64(want.p99), "slots", "sim")
	res.note("repetition rates %.0f..%.0f slots/s", minOf(times.rates), maxOf(times.rates))
	res.note("switch: %d repetitions of %d slots, simulated digest %016x", len(times.rates), swSlots, want.digest)
	if !cfg.trace {
		return res, nil
	}

	// Traced pass: spans around every enqueue, Step and Schedule call.
	tr := newTracer()
	end = time.Now().Add(cfg.budget(0.4))
	var tracedRates []float64
	for rep := 1; len(tracedRates) < 2 || time.Now().Before(end); rep++ {
		ts := &timedScheduler{inner: defaultSched(), tr: tr}
		x, err := newSwitchSim(in, ts)
		if err != nil {
			return nil, err
		}
		wall := x.run(in, &switchMode{tr: tr})
		tr.wall += wall
		check(x, rep)
		tracedRates = append(tracedRates, swSlots/wall.Seconds())
	}
	// Allocation pass: exact MemStats windows around the enqueues and the
	// Step of each slot, after repetition 0 warmed every lazy path.
	ma := &switchMode{allocs: true}
	xa, err := newSwitchSim(in, nil)
	if err != nil {
		return nil, err
	}
	xa.run(in, ma)
	check(xa, -1)
	// Quality pass: matched pairs against a maximum matching per slot.
	tq := &timedScheduler{inner: defaultSched(), quality: true}
	xq, err := newSwitchSim(in, tq)
	if err != nil {
		return nil, err
	}
	xq.run(in, &switchMode{})
	check(xq, -2)

	st := xq.sw.Stats()
	enqAllocs, enqBytes := ma.enqA.perCall()
	stepAllocs, stepBytes := ma.stepA.perCall()
	L := res.layers
	L["buffer.enqueue_ns"] = tr.meanNS(spBufferEnqueue)
	L["sched.schedule_ns"] = tr.meanNS(spSchedSchedule)
	L["switchnode.step_ns"] = tr.meanNS(spSwitchStep)
	L["switchnode.step_self_ns"] = tr.meanSelfNS(spSwitchStep)
	slotsA := float64(ma.stepA.calls)
	L["switchnode.allocs_per_slot"] = (float64(ma.enqA.mallocs) + float64(ma.stepA.mallocs)) / slotsA
	L["switchnode.bytes_per_slot"] = (float64(ma.enqA.bytes) + float64(ma.stepA.bytes)) / slotsA
	L["sched.iters_per_slot"] = float64(st.PIMIterationsTotal) / float64(st.Slots)
	L["sched.match_ratio"] = ratio(float64(tq.matched), float64(tq.matchable))
	L["buffer.drop_frac"] = ratio(float64(st.DroppedBestEffort), float64(st.ArrivedBestEffort))
	L["buffer.occupancy_cells"] = float64(xq.occSum) / swSlots
	L["sim_throughput"] = want.throughput
	L["sim_p99_lat_slots"] = float64(want.p99)
	tracedRate := median(tracedRates)
	L["trace.overhead_frac"] = rate/tracedRate - 1
	res.setSelfFracs(tr)
	res.line("traced slots_per_s", tracedRate, "1/s", "host")
	res.line("trace overhead (traced-untraced)", 1/tracedRate*1e6-1/rate*1e6, "us/slot", "host")
	res.note("switch allocs: %.3f per enqueue (%.1f B), %.3f per Step (%.1f B)", enqAllocs, enqBytes, stepAllocs, stepBytes)
	if cfg.traceOut != "" {
		path, err := tr.writeJSONL(cfg.traceOut, spanFileName("switch", cfg.seed))
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.note("spans written to %s", path)
	}
	return res, nil
}
