// Package buffer implements the input-buffer organizations the paper
// contrasts in §3 and §5:
//
//   - FIFO: a single first-in-first-out queue per input (AN1). Only the
//     head cell is eligible for transmission, causing head-of-line
//     blocking, which limits throughput to ~58% under uniform traffic.
//   - PerVC: random-access input buffers (AN2). Cells queue per virtual
//     circuit; the head cell of *any* queued circuit may be selected, so a
//     cell is blocked only when its output is busy. Per-VC buffers also
//     remove the buffer-wait cycles that make FIFO networks deadlock-prone
//     (§5).
//
// Both implement InputBuffer so the switch and the experiments can swap
// disciplines.
package buffer

import (
	"cmp"
	"slices"

	"repro/internal/cell"
)

// InputBuffer is an input-side cell store on a line card.
type InputBuffer interface {
	// Push enqueues a cell with its destination output port. It reports
	// false if the buffer rejected (dropped) the cell for lack of space,
	// or (PerVC) because the cell's circuit still has cells queued toward
	// a different output.
	Push(c cell.Cell, output int) bool
	// Eligible returns the set of output ports for which this input has a
	// cell eligible for transmission this slot. For FIFO that is just the
	// head cell's output; for per-VC buffers it is every output with a
	// queued circuit.
	Eligible() []int
	// EligibleBits returns the same set as Eligible as a bitset (bit j set
	// iff an eligible cell for output j is buffered). The slice is owned
	// by the buffer — callers must treat it as read-only and must not
	// retain it across mutations — and may be shorter than the switch's
	// word count (missing high words are zero). This is the slot-loop hot
	// path: the switch ANDs it word-wise into the request matrix with no
	// per-output iteration and no allocation.
	EligibleBits() []uint64
	// Pop removes and returns an eligible cell destined to the given
	// output. ok is false if no eligible cell for that output exists.
	Pop(output int) (c cell.Cell, ok bool)
	// Len returns the number of buffered cells.
	Len() int
	// CountVC returns the number of buffered cells belonging to circuit vc.
	CountVC(vc cell.VCI) int
	// Drop discards all buffered cells of circuit vc (teardown, page-out,
	// reroute purge), returning how many were discarded. EligibleBits stays
	// consistent with the surviving contents.
	Drop(vc cell.VCI) int
	// DropAll discards every buffered cell (a crashed line card losing its
	// memory), returning how many were discarded.
	DropAll() int
	// ForEach visits every buffered cell with its output port in a
	// deterministic order (FIFO: queue order; PerVC: ascending VCI, then
	// queue order within a circuit). The buffer must not be mutated during
	// the walk. Fast-forward uses this to take state signatures.
	ForEach(fn func(c cell.Cell, output int))
	// ForEachRR visits the per-output round-robin pointers in ascending
	// output order. FIFO has none and never calls fn. The pointers persist
	// after a circuit's queue drains and still bias future service order,
	// so any state signature must include them.
	ForEachRR(fn func(output int, vc cell.VCI))
	// ShiftStamps advances every buffered cell's timestamp by dt slots and
	// its sequence number by seqShift(vc) — how fast-forward relocates a
	// steady-state buffer occupancy k·period slots into the future without
	// replaying the slots in between. A nil seqShift leaves Seq untouched.
	ShiftStamps(dt int64, seqShift func(vc cell.VCI) uint64)
}

// queued pairs a cell with its output port.
type queued struct {
	c      cell.Cell
	output int
}

// FIFO is the AN1-style single queue. The zero value is unusable; create
// with NewFIFO.
type FIFO struct {
	q     []queued
	head  int
	limit int
	bits  []uint64 // scratch backing EligibleBits
}

var _ InputBuffer = (*FIFO)(nil)

// NewFIFO creates a FIFO input buffer holding at most limit cells
// (limit <= 0 means unbounded).
func NewFIFO(limit int) *FIFO {
	return &FIFO{limit: limit}
}

// Push implements InputBuffer.
func (f *FIFO) Push(c cell.Cell, output int) bool {
	if f.limit > 0 && f.Len() >= f.limit {
		return false
	}
	f.q = append(f.q, queued{c: c, output: output})
	return true
}

// Eligible implements InputBuffer: only the head cell's output.
func (f *FIFO) Eligible() []int {
	if f.head >= len(f.q) {
		return nil
	}
	return []int{f.q[f.head].output}
}

// EligibleBits implements InputBuffer: a single bit for the head cell's
// output (empty bitset when the queue is empty).
func (f *FIFO) EligibleBits() []uint64 {
	if f.head >= len(f.q) {
		return nil
	}
	j := f.q[f.head].output
	words := j/64 + 1
	if cap(f.bits) < words {
		f.bits = make([]uint64, words)
	}
	f.bits = f.bits[:words]
	for w := range f.bits {
		f.bits[w] = 0
	}
	f.bits[words-1] = 1 << (uint(j) % 64)
	return f.bits
}

// Pop implements InputBuffer: only the head cell may leave, and only
// toward its own output.
func (f *FIFO) Pop(output int) (cell.Cell, bool) {
	if f.head >= len(f.q) || f.q[f.head].output != output {
		return cell.Cell{}, false
	}
	c := f.q[f.head].c
	f.head++
	// Compact occasionally so memory stays bounded.
	if f.head > 64 && f.head*2 >= len(f.q) {
		n := copy(f.q, f.q[f.head:])
		f.q = f.q[:n]
		f.head = 0
	}
	return c, true
}

// Len implements InputBuffer.
func (f *FIFO) Len() int { return len(f.q) - f.head }

// CountVC implements InputBuffer by scanning the queue.
func (f *FIFO) CountVC(vc cell.VCI) int {
	n := 0
	for _, it := range f.q[f.head:] {
		if it.c.VC == vc {
			n++
		}
	}
	return n
}

// Drop implements InputBuffer: it compacts the queue in place, removing
// every cell of circuit vc while preserving the order of the rest.
func (f *FIFO) Drop(vc cell.VCI) int {
	kept := f.q[:0]
	dropped := 0
	for _, it := range f.q[f.head:] {
		if it.c.VC == vc {
			dropped++
			continue
		}
		kept = append(kept, it)
	}
	f.q = kept
	f.head = 0
	return dropped
}

// DropAll implements InputBuffer.
func (f *FIFO) DropAll() int {
	n := f.Len()
	f.q = f.q[:0]
	f.head = 0
	return n
}

// ForEach implements InputBuffer: queue order, head first.
func (f *FIFO) ForEach(fn func(c cell.Cell, output int)) {
	for _, it := range f.q[f.head:] {
		fn(it.c, it.output)
	}
}

// ForEachRR implements InputBuffer: a FIFO has no round-robin state.
func (f *FIFO) ForEachRR(fn func(output int, vc cell.VCI)) {}

// ShiftStamps implements InputBuffer.
func (f *FIFO) ShiftStamps(dt int64, seqShift func(vc cell.VCI) uint64) {
	for i := f.head; i < len(f.q); i++ {
		f.q[i].c.Stamp.EnqueuedAt += dt
		if seqShift != nil {
			f.q[i].c.Stamp.Seq += seqShift(f.q[i].c.VC)
		}
	}
}

// PerVC is the AN2-style random-access buffer: one queue per virtual
// circuit. Create with NewPerVC.
//
// Layout. Each circuit with queued cells owns a slot in a dense slot
// array; its cells sit in a power-of-two ring inside the slot. A VCI →
// slot index is consulted once per Push (Pop consults none). A slot is
// released to a free list the moment its queue drains, or on Drop and
// DropAll, and keeps its ring for the next circuit, so the slot array is
// bounded by the peak number of simultaneously queued circuits however
// many circuits come and go.
//
// Round robin. Each output keeps its active circuits sorted by VCI (with
// their slots alongside), plus the VCI it served last and whether it has
// served any. Pop binary-searches for the first active VCI greater than
// the last-served one, wrapping to the smallest: round-robin in ascending
// VCI order. The pointer outlives the queue it named, so ForEachRR reports
// it even after that circuit drains or is dropped.
//
// A circuit has a single route through the switch, so all of its queued
// cells share one output. Push refuses (returns false for) a cell whose
// output differs from that of the circuit's cells still queued; once the
// queue drains the circuit may be pushed toward any output.
type PerVC struct {
	// perVCLimit bounds each circuit's queue (0 = unbounded). The paper
	// sizes this to a link round-trip (credit allocation, §5).
	perVCLimit int
	total      int
	// index maps each circuit with queued cells to its slot.
	index map[cell.VCI]int32
	slots []vcQueue
	free  []int32
	// outs[o] is output o's round-robin state; grown on first use.
	outs []outQueue
	// bits has bit o set iff outs[o] has an active circuit, maintained
	// incrementally so EligibleBits is O(1) with no allocation.
	bits []uint64
}

// vcQueue is one circuit's slot: its cells in a ring of power-of-two
// length, oldest at head.
type vcQueue struct {
	vc     cell.VCI
	output int
	cells  []cell.Cell
	head   int
	n      int
}

func (q *vcQueue) push(c cell.Cell) {
	if q.n == len(q.cells) {
		size := 2 * len(q.cells)
		if size == 0 {
			size = 4
		}
		ring := make([]cell.Cell, size)
		k := copy(ring, q.cells[q.head:])
		copy(ring[k:], q.cells[:q.head])
		q.cells, q.head = ring, 0
	}
	q.cells[(q.head+q.n)&(len(q.cells)-1)] = c
	q.n++
}

func (q *vcQueue) pop() cell.Cell {
	c := q.cells[q.head]
	q.head = (q.head + 1) & (len(q.cells) - 1)
	q.n--
	return c
}

// at returns the k-th oldest queued cell.
func (q *vcQueue) at(k int) *cell.Cell {
	return &q.cells[(q.head+k)&(len(q.cells)-1)]
}

// outQueue is one output's round-robin state: the circuits with cells
// queued for it, ascending by VCI, with their slots at the same index.
type outQueue struct {
	vcs    []cell.VCI
	slots  []int32
	last   cell.VCI
	served bool
}

var _ InputBuffer = (*PerVC)(nil)

// NewPerVC creates a per-virtual-circuit random-access buffer. perVCLimit
// bounds each circuit's queue; 0 means unbounded.
func NewPerVC(perVCLimit int) *PerVC {
	return &PerVC{
		index:      make(map[cell.VCI]int32),
		perVCLimit: perVCLimit,
	}
}

// Push implements InputBuffer. It refuses a cell when the circuit's queue
// is at its limit, or when the circuit still has cells queued toward a
// different output (see PerVC). output must be non-negative.
func (p *PerVC) Push(c cell.Cell, output int) bool {
	if s, ok := p.index[c.VC]; ok {
		q := &p.slots[s]
		if q.output != output || (p.perVCLimit > 0 && q.n >= p.perVCLimit) {
			return false
		}
		q.push(c)
		p.total++
		return true
	}
	s := p.alloc(c.VC, output)
	p.slots[s].push(c)
	p.index[c.VC] = s
	p.activate(output, c.VC, s)
	p.total++
	return true
}

// alloc takes a slot from the free list (or grows the slot array) and
// binds it to circuit vc.
func (p *PerVC) alloc(vc cell.VCI, output int) int32 {
	var s int32
	if k := len(p.free); k > 0 {
		s = p.free[k-1]
		p.free = p.free[:k-1]
	} else {
		s = int32(len(p.slots))
		p.slots = append(p.slots, vcQueue{})
	}
	q := &p.slots[s]
	q.vc, q.output, q.head, q.n = vc, output, 0, 0
	return s
}

// activate inserts slot s (circuit vc) into output's sorted active list
// and marks the output eligible.
func (p *PerVC) activate(output int, vc cell.VCI, s int32) {
	for len(p.outs) <= output {
		p.outs = append(p.outs, outQueue{})
	}
	o := &p.outs[output]
	k, _ := slices.BinarySearch(o.vcs, vc)
	o.vcs = slices.Insert(o.vcs, k, vc)
	o.slots = slices.Insert(o.slots, k, s)
	w := output / 64
	for len(p.bits) <= w {
		p.bits = append(p.bits, 0)
	}
	p.bits[w] |= 1 << (uint(output) % 64)
}

// deactivate removes entry k from output's active list, releasing its
// slot, and unmarks the output once no circuit is left on it.
func (p *PerVC) deactivate(output, k int) {
	o := &p.outs[output]
	s := o.slots[k]
	delete(p.index, o.vcs[k])
	o.vcs = slices.Delete(o.vcs, k, k+1)
	o.slots = slices.Delete(o.slots, k, k+1)
	p.free = append(p.free, s)
	if len(o.vcs) == 0 {
		p.bits[output/64] &^= 1 << (uint(output) % 64)
	}
}

// Eligible implements InputBuffer: every output with at least one queued
// circuit, ascending.
func (p *PerVC) Eligible() []int {
	out := make([]int, 0, len(p.outs))
	for o := range p.outs {
		if len(p.outs[o].vcs) > 0 {
			out = append(out, o)
		}
	}
	return out
}

// EligibleBits implements InputBuffer: the incrementally maintained output
// bitset, equal bit-for-bit to Eligible.
func (p *PerVC) EligibleBits() []uint64 { return p.bits }

// Pop implements InputBuffer. Among the circuits queued for the output it
// serves them round-robin in ascending VCI order, so one busy circuit
// cannot monopolize the port.
func (p *PerVC) Pop(output int) (cell.Cell, bool) {
	if output < 0 || output >= len(p.outs) || len(p.outs[output].vcs) == 0 {
		return cell.Cell{}, false
	}
	o := &p.outs[output]
	k := 0
	if o.served {
		// The first active VCI above the last-served one, else wrap.
		var found bool
		if k, found = slices.BinarySearch(o.vcs, o.last); found {
			k++
		}
		if k == len(o.vcs) {
			k = 0
		}
	}
	vc := o.vcs[k]
	q := &p.slots[o.slots[k]]
	c := q.pop()
	p.total--
	o.last, o.served = vc, true
	if q.n == 0 {
		p.deactivate(output, k)
	}
	return c, true
}

// Len implements InputBuffer.
func (p *PerVC) Len() int { return p.total }

// QueueLen returns the number of cells queued for circuit vc.
func (p *PerVC) QueueLen(vc cell.VCI) int {
	if s, ok := p.index[vc]; ok {
		return p.slots[s].n
	}
	return 0
}

// CountVC implements InputBuffer.
func (p *PerVC) CountVC(vc cell.VCI) int { return p.QueueLen(vc) }

// Circuits returns the number of circuits with queued cells.
func (p *PerVC) Circuits() int { return len(p.index) }

// Drop discards all cells of circuit vc (used on teardown/page-out),
// returning how many were discarded. The output's round-robin pointer is
// left as it was.
func (p *PerVC) Drop(vc cell.VCI) int {
	s, ok := p.index[vc]
	if !ok {
		return 0
	}
	q := &p.slots[s]
	n := q.n
	p.total -= n
	k, _ := slices.BinarySearch(p.outs[q.output].vcs, vc)
	p.deactivate(q.output, k)
	return n
}

// ForEach implements InputBuffer: circuits in ascending VCI order, cells
// in queue order within each circuit.
func (p *PerVC) ForEach(fn func(c cell.Cell, output int)) {
	order := make([]int32, 0, len(p.index))
	for o := range p.outs {
		order = append(order, p.outs[o].slots...)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Compare(p.slots[a].vc, p.slots[b].vc)
	})
	for _, s := range order {
		q := &p.slots[s]
		for k := 0; k < q.n; k++ {
			fn(*q.at(k), q.output)
		}
	}
}

// ForEachRR implements InputBuffer: pointers in ascending output order.
func (p *PerVC) ForEachRR(fn func(output int, vc cell.VCI)) {
	for o := range p.outs {
		if p.outs[o].served {
			fn(o, p.outs[o].last)
		}
	}
}

// ShiftStamps implements InputBuffer.
func (p *PerVC) ShiftStamps(dt int64, seqShift func(vc cell.VCI) uint64) {
	for o := range p.outs {
		for _, s := range p.outs[o].slots {
			q := &p.slots[s]
			var ds uint64
			if seqShift != nil {
				ds = seqShift(q.vc)
			}
			for k := 0; k < q.n; k++ {
				c := q.at(k)
				c.Stamp.EnqueuedAt += dt
				c.Stamp.Seq += ds
			}
		}
	}
}

// DropAll implements InputBuffer. Round-robin pointers survive, as they
// do for Drop.
func (p *PerVC) DropAll() int {
	n := p.total
	clear(p.index)
	for o := range p.outs {
		p.outs[o].vcs = p.outs[o].vcs[:0]
		p.outs[o].slots = p.outs[o].slots[:0]
	}
	clear(p.bits)
	p.free = p.free[:0]
	for s := len(p.slots) - 1; s >= 0; s-- {
		p.free = append(p.free, int32(s))
	}
	p.total = 0
	return n
}
