package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"time"
)

// metricDef names one reported metric. For per-layer metrics, workload is
// where the layer is exercised and moves is the end-to-end metric it
// should move there.
type metricDef struct {
	name, unit string
	workload   string
	moves      string
}

// e2eMetrics are reported by every workload with tracing off. The host
// metrics read each workload's own headline quantity; doc.go maps them.
var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "peak_heap_mb", unit: "MB"},
	{name: "host_rate_per_s", unit: "1/s"},
	{name: "host_latency_us", unit: "us"},
}

// layerMetrics are reported by every workload in the traced run; a layer
// a workload does not exercise reads 0 there.
var layerMetrics = []metricDef{
	{"buffer.enqueue_ns", "ns", "switch", "slots_per_s"},
	{"sched.schedule_ns", "ns", "switch", "slots_per_s"},
	{"switchnode.step_ns", "ns", "switch", "slots_per_s"},
	{"switchnode.step_self_ns", "ns", "switch", "slots_per_s"},
	{"switchnode.allocs_per_slot", "count", "switch", "slots_per_s"},
	{"switchnode.bytes_per_slot", "B", "switch", "slots_per_s,peak_heap_mb"},
	{"sched.iters_per_slot", "count", "switch", "slots_per_s"},
	{"sched.match_ratio", "ratio", "switch", "sim_throughput"},
	{"buffer.drop_frac", "ratio", "switch", "sim_throughput"},
	{"buffer.occupancy_cells", "cells", "switch", "sim_p99_lat_slots"},

	{"simnet.step_ns", "ns", "fabric,recover", "slots_per_s"},
	{"simnet.send_ns", "ns", "fabric", "slots_per_s"},
	{"simnet.allocs_per_slot", "count", "fabric", "slots_per_s"},
	{"simnet.send_refused_frac", "ratio", "fabric", "sim_throughput"},
	{"simnet.delivered_per_slot", "cells", "fabric", "sim_throughput"},
	{"simnet.buffered_cells", "cells", "fabric", "sim_p99_lat_slots"},
	{"simnet.inflight_cells", "cells", "fabric", "sim_p99_lat_slots"},
	{"simnet.open_ns", "ns", "fabric,recover", "setup_s"},

	{"ctrlnet.send_ns", "ns", "service", "capacity_fps"},
	{"ctrlnet.batch_size", "msgs", "service", "capacity_fps"},
	{"svc.handle_ns_per_msg", "ns", "service", "capacity_fps"},
	{"svc.busy_frac", "ratio", "service", "capacity_fps"},
	{"svc.shed_frac", "ratio", "service", "capacity_fps"},
	{"svc.allocs_per_flow", "count", "service", "capacity_fps"},
	{"svc.tick_us", "us", "service", "setup_p50_us,setup_p99_us"},
	{"svc.tick_frac", "ratio", "service", "setup_p50_us,setup_p99_us"},
	{"svc.retransmit_frac", "ratio", "service", "setup_p99_us"},
	{"proto.marshal_ns", "ns", "service", "capacity_fps"},
	{"proto.unmarshal_ns", "ns", "service", "capacity_fps"},
	{"routing.shortest_legal_ns", "ns", "service,fabric,recover", "capacity_fps"},
	{"core.open_be_ns", "ns", "service", "capacity_fps"},
	{"core.reserve_ns", "ns", "service", "capacity_fps"},
	{"core.close_ns", "ns", "service", "capacity_fps"},

	{"recovery.tick_ns", "ns", "recover", "slots_per_s"},
	{"recovery.react_ms", "ms", "recover", "slots_per_s"},
	{"recovery.detect_lag_slots", "slots", "recover", "sim_outage_slots"},
	{"recovery.reconfig_slots", "slots", "recover", "sim_outage_slots"},
	{"reconfig.rounds_per_incident", "count", "recover", "sim_outage_slots,recovery.react_ms"},
	{"reconfig.msgs_per_round", "count", "recover", "sim_outage_slots,recovery.react_ms"},
	{"recovery.failed_reroute_frac", "ratio", "recover", "sim_outage_slots"},

	{"sim_throughput", "cells/slot", "switch,fabric,recover", "(simulated result)"},
	{"sim_p99_lat_slots", "slots", "switch,fabric,recover", "(simulated result)"},
	{"sim_outage_slots", "slots", "recover", "(simulated result)"},
	{"trace.overhead_frac", "ratio", "all", "(traced minus untraced headline)"},
	{"buffer.self_frac", "ratio", "switch", "(share of traced wall)"},
	{"sched.self_frac", "ratio", "switch", "(share of traced wall)"},
	{"switchnode.self_frac", "ratio", "switch", "(share of traced wall)"},
	{"simnet.self_frac", "ratio", "fabric,recover", "(share of traced wall)"},
	{"recovery.self_frac", "ratio", "recover", "(share of traced wall)"},
	{"core.self_frac", "ratio", "service", "(share of traced wall)"},
	{"routing.self_frac", "ratio", "service", "(share of traced wall)"},
	{"proto.self_frac", "ratio", "service", "(share of traced wall)"},
	{"ctrlnet.self_frac", "ratio", "service", "(share of traced wall)"},
	{"svc.self_frac", "ratio", "service", "(share of traced wall)"},
	{"idle.self_frac", "ratio", "service", "(share of traced wall)"},
	{"other.self_frac", "ratio", "all", "(share of traced wall)"},
}

// reportLine is one human-readable metric line printed before the JSON.
type reportLine struct {
	name  string
	value float64
	unit  string
	clock string // "host" or "sim"
}

// result is what a workload run returns.
type result struct {
	attempted, failed int64
	// checks lists failed correctness checks; any entry makes the run
	// incorrect.
	checks []string
	e2e    map[string]float64
	layers map[string]float64
	report []reportLine
	notes  []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail records a failed correctness check, which also counts as a failed
// operation.
func (r *result) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
	r.failed++
}

func (r *result) line(name string, v float64, unit, clock string) {
	r.report = append(r.report, reportLine{name, v, unit, clock})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setSelfFracs copies the tracer's wall-time split into the layer metrics.
func (r *result) setSelfFracs(t *tracer) {
	for l, v := range t.selfFracs() {
		r.layers[l+".self_frac"] = v
	}
}

type runConfig struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
}

// budget returns a share of the run's measuring time.
func (c runConfig) budget(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

var workloads = map[string]func(runConfig) (*result, error){
	"switch":  runSwitch,
	"fabric":  runFabric,
	"service": runService,
	"recover": runRecover,
}

func main() {
	workload := flag.String("workload", "", "workload: switch, fabric, service or recover")
	seed := flag.Int64("seed", 1, "seed every generated input is derived from")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	traceOut := flag.String("trace-out", "", "directory for the traced run's span JSONL (empty: not written)")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *traceFlag)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, traceOut: *traceOut}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := emit(*workload, cfg, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func emit(workload string, cfg runConfig, res *result) error {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%v\n", workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, l := range res.report {
		fmt.Printf("%-28s %16.6g %-12s (%s time)\n", l.name, l.value, l.unit, l.clock)
	}
	for _, n := range res.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, c := range res.checks {
		fmt.Printf("# CHECK FAILED: %s\n", c)
	}
	defs, values := e2eMetrics, res.e2e
	if cfg.trace {
		defs, values = layerMetrics, res.layers
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("%s: end-to-end metric %s not measured", workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", workload, d.name, v)
		}
		if cfg.trace {
			fmt.Printf("layer %-30s %14.6g %-10s measured on %-15s moves %s\n", d.name, v, d.unit, d.workload, d.moves)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	attempted := res.attempted
	if attempted < 1 {
		attempted = 1
	}
	out, err := json.Marshal(map[string]any{
		"correct":   len(res.checks) == 0,
		"attempted": attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileSorted returns the q-quantile of a sorted slice by nearest rank
// (0 for none).
func quantileSorted[T int64 | float64](s []T, q float64) T {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func sortedCopy[T int64 | float64](xs []T) []T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func minOf(xs []float64) float64 { return quantileSorted(sortedCopy(xs), 0) }

func maxOf(xs []float64) float64 { return quantileSorted(sortedCopy(xs), 1) }

// repTimes collects the host times of repeated, identical simulation
// runs: each repetition's rate and its per-slot p50 and p99.
type repTimes struct {
	slots        int
	rates        []float64
	p50US, p99US []float64
}

func (rt *repTimes) add(wall time.Duration, slotNS []int64) {
	s := sortedCopy(slotNS)
	rt.rates = append(rt.rates, float64(rt.slots)/wall.Seconds())
	rt.p50US = append(rt.p50US, float64(quantileSorted(s, 0.5))/1e3)
	rt.p99US = append(rt.p99US, float64(quantileSorted(s, 0.99))/1e3)
}

// minReps is the fewest timed repetitions a run makes, whatever its time
// budget.
const minReps = 3
