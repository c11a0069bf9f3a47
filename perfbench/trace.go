package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// spanKind names one layer boundary the benchmark times from outside: the
// prefix before the dot is the layer its self time is charged to.
type spanKind uint8

const (
	spBufferEnqueue spanKind = iota
	spSchedSchedule
	spSwitchStep
	spSimnetSend
	spSimnetStep
	spSimnetOpen
	spRecoveryTick
	spCtrlnetSend
	spCtrlnetWait
	spSvcHandle
	spSvcTick
	spProtoMarshal
	spProtoUnmarshal
	spRoutingShortest
	spCoreOpenBE
	spCoreReserve
	spCoreClose
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spBufferEnqueue:   "buffer.enqueue",
	spSchedSchedule:   "sched.schedule",
	spSwitchStep:      "switchnode.step",
	spSimnetSend:      "simnet.send",
	spSimnetStep:      "simnet.step",
	spSimnetOpen:      "simnet.open",
	spRecoveryTick:    "recovery.tick",
	spCtrlnetSend:     "ctrlnet.send",
	spCtrlnetWait:     "idle.wait",
	spSvcHandle:       "svc.handle",
	spSvcTick:         "svc.tick",
	spProtoMarshal:    "proto.marshal",
	spProtoUnmarshal:  "proto.unmarshal",
	spRoutingShortest: "routing.shortest_legal",
	spCoreOpenBE:      "core.open_be",
	spCoreReserve:     "core.reserve",
	spCoreClose:       "core.close",
}

// selfLayers are the buckets the traced run's wall time is split into; the
// explicit "other" bucket is wall time outside every top-level span.
var selfLayers = []string{"buffer", "sched", "switchnode", "simnet", "recovery",
	"core", "routing", "proto", "ctrlnet", "svc", "idle", "other"}

func (k spanKind) layer() string {
	name := spanNames[k]
	return name[:strings.IndexByte(name, '.')]
}

// spanAgg accumulates every span of one kind, kept or not.
type spanAgg struct {
	n     int64
	total int64 // ns
	child int64 // ns covered by child spans
}

// spanRec is one kept span: start and end are ns since the tracer began,
// parent indexes the enclosing kept span (-1 for none), id is the slot or
// request the span belongs to.
type spanRec struct {
	kind   spanKind
	id     uint64
	parent int32
	start  int64
	end    int64
}

type openSpan struct {
	kind  spanKind
	start int64
	child int64
	rec   int32
}

// tracer records spans around calls into the program. Aggregates cover
// every span; full records are kept for ids that are multiples of
// keepEvery, up to maxKeep, and written as JSONL at exit. A tracer belongs
// to one goroutine at a time.
type tracer struct {
	base      time.Time
	stack     []openSpan
	agg       [numSpanKinds]spanAgg
	keepEvery uint64
	maxKeep   int
	curKeep   bool
	cur       uint64 // id of the current slot or request
	recs      []spanRec
	wall      time.Duration // traced wall time the self times account for
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), keepEvery: 64, maxKeep: 200_000}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// setID starts a new slot or request: spans begun until the next setID are
// kept when id is sampled.
func (t *tracer) setID(id uint64) {
	t.cur = id
	t.curKeep = id%t.keepEvery == 0 && len(t.recs) < t.maxKeep
}

// begin opens a span of kind k under the innermost open span.
func (t *tracer) begin(k spanKind, id uint64) {
	start := t.now()
	rec := int32(-1)
	if t.curKeep {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].rec
		}
		rec = int32(len(t.recs))
		t.recs = append(t.recs, spanRec{kind: k, id: id, parent: parent, start: start})
	}
	t.stack = append(t.stack, openSpan{kind: k, start: start, rec: rec})
}

// end closes the innermost span and returns its duration in ns.
func (t *tracer) end() int64 {
	end := t.now()
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	d := end - s.start
	a := &t.agg[s.kind]
	a.n++
	a.total += d
	a.child += s.child
	if n > 0 {
		t.stack[n-1].child += d
	}
	if s.rec >= 0 {
		t.recs[s.rec].end = end
	}
	return d
}

// meanNS is the mean duration of spans of kind k (0 when none ran).
func (t *tracer) meanNS(k spanKind) float64 {
	a := t.agg[k]
	if a.n == 0 {
		return 0
	}
	return float64(a.total) / float64(a.n)
}

// meanSelfNS is the mean duration of kind k minus its children.
func (t *tracer) meanSelfNS(k spanKind) float64 {
	a := t.agg[k]
	if a.n == 0 {
		return 0
	}
	return float64(a.total-a.child) / float64(a.n)
}

// selfFracs splits the traced wall time into per-layer self time plus an
// explicit "other" bucket for time outside every span.
func (t *tracer) selfFracs() map[string]float64 {
	out := make(map[string]float64, len(selfLayers))
	for _, l := range selfLayers {
		out[l] = 0
	}
	wall := float64(t.wall)
	if wall <= 0 {
		return out
	}
	covered := 0.0
	for k := spanKind(0); k < numSpanKinds; k++ {
		self := float64(t.agg[k].total - t.agg[k].child)
		out[k.layer()] += self / wall
		covered += self
	}
	out["other"] = (wall - covered) / wall
	return out
}

// writeJSONL writes the kept spans to dir/<name>.jsonl.
func (t *tracer) writeJSONL(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Index   int    `json:"index"`
		Name    string `json:"name"`
		ID      uint64 `json:"id"`
		Parent  int32  `json:"parent"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	for i, r := range t.recs {
		if err := enc.Encode(line{i, spanNames[r.kind], r.id, r.parent, r.start, r.end}); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// memSample is an exact allocation reading: ReadMemStats flushes every
// mcache, so deltas between two samples count every heap allocation made
// in between.
type memSample struct{ mallocs, bytes uint64 }

var memStats runtime.MemStats

func readMem() memSample {
	runtime.ReadMemStats(&memStats)
	return memSample{memStats.Mallocs, memStats.TotalAlloc}
}

// allocCounter sums exact allocation deltas over windows that each wrap
// calls into one layer.
type allocCounter struct {
	calls   int64
	mallocs uint64
	bytes   uint64
}

func (a *allocCounter) add(before, after memSample, calls int64) {
	a.calls += calls
	a.mallocs += after.mallocs - before.mallocs
	a.bytes += after.bytes - before.bytes
}

func (a *allocCounter) perCall() (allocs, bytes float64) {
	if a.calls == 0 {
		return 0, 0
	}
	return float64(a.mallocs) / float64(a.calls), float64(a.bytes) / float64(a.calls)
}

// liveHeapBytes forces a collection and returns the live heap.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.ReadMemStats(&memStats)
	return memStats.HeapAlloc
}

// heapPeak tracks the largest live heap seen at checkpoints, net of the
// baseline taken before the program's objects were built.
type heapPeak struct {
	base, peak uint64
}

func newHeapPeak() *heapPeak { return &heapPeak{base: liveHeapBytes()} }

func (h *heapPeak) check() {
	if v := liveHeapBytes(); v > h.base && v-h.base > h.peak {
		h.peak = v - h.base
	}
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / 1e6 }

func spanFileName(workload string, seed int64) string {
	return fmt.Sprintf("%s-seed%d", workload, seed)
}
