package buffer

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cell"
)

func mk(vc cell.VCI, seq uint64) cell.Cell {
	return cell.Cell{VC: vc, Stamp: cell.Stamp{Seq: seq}}
}

func TestFIFOOrderAndHoL(t *testing.T) {
	f := NewFIFO(0)
	f.Push(mk(1, 0), 3) // head, wants output 3
	f.Push(mk(2, 1), 5) // behind, wants output 5
	if got := f.Eligible(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Eligible = %v, want [3]", got)
	}
	// Head-of-line blocking: cell for output 5 cannot leave while head
	// wants 3.
	if _, ok := f.Pop(5); ok {
		t.Fatal("HoL-blocked cell escaped the FIFO")
	}
	c, ok := f.Pop(3)
	if !ok || c.VC != 1 {
		t.Fatalf("Pop(3) = %+v, %v", c, ok)
	}
	if got := f.Eligible(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("after pop Eligible = %v, want [5]", got)
	}
	if f.Len() != 1 {
		t.Fatalf("Len = %d, want 1", f.Len())
	}
}

func TestFIFOLimit(t *testing.T) {
	f := NewFIFO(2)
	if !f.Push(mk(1, 0), 0) || !f.Push(mk(1, 1), 0) {
		t.Fatal("pushes under limit rejected")
	}
	if f.Push(mk(1, 2), 0) {
		t.Fatal("push over limit accepted")
	}
	f.Pop(0)
	if !f.Push(mk(1, 3), 0) {
		t.Fatal("push after drain rejected")
	}
}

func TestFIFOCompaction(t *testing.T) {
	f := NewFIFO(0)
	for i := 0; i < 500; i++ {
		f.Push(mk(1, uint64(i)), 0)
	}
	for i := 0; i < 400; i++ {
		c, ok := f.Pop(0)
		if !ok || c.Stamp.Seq != uint64(i) {
			t.Fatalf("pop %d: got seq %d ok=%v", i, c.Stamp.Seq, ok)
		}
	}
	if f.Len() != 100 {
		t.Fatalf("Len = %d, want 100", f.Len())
	}
	// Remaining cells still in order.
	for i := 400; i < 500; i++ {
		c, ok := f.Pop(0)
		if !ok || c.Stamp.Seq != uint64(i) {
			t.Fatalf("post-compact pop: seq %d ok=%v, want %d", c.Stamp.Seq, ok, i)
		}
	}
}

func TestFIFOEmpty(t *testing.T) {
	f := NewFIFO(0)
	if got := f.Eligible(); got != nil {
		t.Fatalf("empty Eligible = %v", got)
	}
	if _, ok := f.Pop(0); ok {
		t.Fatal("popped from empty FIFO")
	}
}

func TestPerVCNoHoLBlocking(t *testing.T) {
	p := NewPerVC(0)
	p.Push(mk(1, 0), 3) // circuit 1 → output 3
	p.Push(mk(2, 0), 5) // circuit 2 → output 5
	elig := p.Eligible()
	if len(elig) != 2 {
		t.Fatalf("Eligible = %v, want both outputs", elig)
	}
	// The defining property: the second circuit's cell is NOT blocked by
	// the first.
	c, ok := p.Pop(5)
	if !ok || c.VC != 2 {
		t.Fatalf("Pop(5) = %+v, %v", c, ok)
	}
	c, ok = p.Pop(3)
	if !ok || c.VC != 1 {
		t.Fatalf("Pop(3) = %+v, %v", c, ok)
	}
	if p.Len() != 0 || p.Circuits() != 0 {
		t.Fatal("buffer not empty after draining")
	}
}

func TestPerVCFIFOWithinCircuit(t *testing.T) {
	p := NewPerVC(0)
	for i := 0; i < 10; i++ {
		p.Push(mk(7, uint64(i)), 2)
	}
	for i := 0; i < 10; i++ {
		c, ok := p.Pop(2)
		if !ok || c.Stamp.Seq != uint64(i) {
			t.Fatalf("within-circuit order broken at %d: seq=%d", i, c.Stamp.Seq)
		}
	}
}

func TestPerVCRoundRobinAcrossCircuits(t *testing.T) {
	p := NewPerVC(0)
	for i := 0; i < 3; i++ {
		p.Push(mk(10, uint64(i)), 1)
		p.Push(mk(20, uint64(i)), 1)
		p.Push(mk(30, uint64(i)), 1)
	}
	var order []cell.VCI
	for i := 0; i < 9; i++ {
		c, ok := p.Pop(1)
		if !ok {
			t.Fatal("pop failed")
		}
		order = append(order, c.VC)
	}
	// Each circuit must be served once per 3 pops (round robin).
	for round := 0; round < 3; round++ {
		seen := map[cell.VCI]bool{}
		for _, vc := range order[round*3 : round*3+3] {
			seen[vc] = true
		}
		if len(seen) != 3 {
			t.Fatalf("round %d not fair: %v", round, order)
		}
	}
}

func TestPerVCLimitIsPerCircuit(t *testing.T) {
	p := NewPerVC(2)
	if !p.Push(mk(1, 0), 0) || !p.Push(mk(1, 1), 0) {
		t.Fatal("under-limit push rejected")
	}
	if p.Push(mk(1, 2), 0) {
		t.Fatal("over-limit push accepted")
	}
	// Another circuit has its own independent allocation.
	if !p.Push(mk(2, 0), 0) {
		t.Fatal("independent circuit rejected")
	}
	if p.QueueLen(1) != 2 || p.QueueLen(2) != 1 || p.QueueLen(99) != 0 {
		t.Fatal("QueueLen wrong")
	}
}

func TestPerVCDrop(t *testing.T) {
	p := NewPerVC(0)
	for i := 0; i < 5; i++ {
		p.Push(mk(4, uint64(i)), 2)
	}
	p.Push(mk(5, 0), 2)
	if n := p.Drop(4); n != 5 {
		t.Fatalf("Drop = %d, want 5", n)
	}
	if p.Len() != 1 || p.QueueLen(4) != 0 {
		t.Fatal("Drop left state behind")
	}
	if n := p.Drop(4); n != 0 {
		t.Fatal("double Drop should be 0")
	}
	// Output 2 must still be eligible for circuit 5.
	if got := p.Eligible(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Eligible after drop = %v", got)
	}
}

func TestPerVCPopEmptyOutput(t *testing.T) {
	p := NewPerVC(0)
	if _, ok := p.Pop(9); ok {
		t.Fatal("popped from empty output")
	}
}

func TestPerVCLongRunCompaction(t *testing.T) {
	p := NewPerVC(0)
	for i := 0; i < 1000; i++ {
		p.Push(mk(1, uint64(i)), 0)
		if i%2 == 1 {
			if _, ok := p.Pop(0); !ok {
				t.Fatal("pop failed")
			}
		}
	}
	if p.Len() != 500 {
		t.Fatalf("Len = %d, want 500", p.Len())
	}
}

// Property: cells within a circuit always leave in push order, for any
// interleaving of pushes and pops across circuits.
func TestQuickPerVCInOrderPerCircuit(t *testing.T) {
	f := func(ops []uint8) bool {
		p := NewPerVC(0)
		nextSeq := map[cell.VCI]uint64{}
		nextPop := map[cell.VCI]uint64{}
		for _, op := range ops {
			vc := cell.VCI(op % 4)
			if op&0x80 == 0 {
				p.Push(mk(vc, nextSeq[vc]), int(vc))
				nextSeq[vc]++
			} else {
				c, ok := p.Pop(int(vc))
				if !ok {
					continue
				}
				if c.Stamp.Seq != nextPop[c.VC] {
					return false
				}
				nextPop[c.VC]++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPerVCPushPop(b *testing.B) {
	p := NewPerVC(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Push(mk(cell.VCI(i%8), uint64(i)), i%4)
		p.Pop(i % 4)
	}
}

// A circuit has one output while it has cells queued: a push toward a
// second output is refused. Accepting it used to leave output 0 marked
// eligible after the circuit drained through output 1, so the next Pop(0)
// dereferenced a missing queue.
func TestPerVCPushToSecondOutputRefused(t *testing.T) {
	p := NewPerVC(0)
	if !p.Push(mk(1, 0), 0) {
		t.Fatal("first push rejected")
	}
	if p.Push(mk(1, 1), 1) {
		t.Fatal("push toward a second output accepted while the circuit is queued")
	}
	if _, ok := p.Pop(0); !ok {
		t.Fatal("Pop(0) found nothing")
	}
	if _, ok := p.Pop(1); ok {
		t.Fatal("Pop(1) served a refused cell")
	}
	if p.Len() != 0 || p.EligibleBits()[0] != 0 {
		t.Fatalf("drained buffer: Len %d, bits %b", p.Len(), p.EligibleBits())
	}
	if _, ok := p.Pop(0); ok {
		t.Fatal("Pop(0) on a drained buffer succeeded")
	}
	// Once drained, the circuit may take a new route.
	if !p.Push(mk(1, 2), 1) {
		t.Fatal("push after drain toward a new output rejected")
	}
	if c, ok := p.Pop(1); !ok || c.Stamp.Seq != 2 {
		t.Fatalf("Pop(1) = %+v, %v", c, ok)
	}
}

// Steady-state push/pop, including circuits that drain and refill, reuses
// slots and rings and does not allocate.
func TestPerVCSteadyStateZeroAllocs(t *testing.T) {
	p := NewPerVC(16)
	cycle := func() {
		for vc := cell.VCI(1); vc <= 64; vc++ {
			for k := 0; k < int(vc%4)+1; k++ {
				p.Push(mk(vc, 0), int(vc%16))
			}
		}
		for p.Len() > 0 {
			for o := 0; o < 16; o++ {
				p.Pop(o)
			}
		}
	}
	cycle()
	if a := testing.AllocsPerRun(50, cycle); a != 0 {
		t.Fatalf("steady-state cycle allocates %.1f times", a)
	}
}

// mapPerVC is the map-based per-VC buffer the slot layout replaced — one
// map of queues, one map of circuit sets per output, one map of
// round-robin pointers — kept as the oracle PerVC must agree with op for
// op. Its only change from the original is the refusal of a push toward a
// second output while the circuit has cells queued.
type mapPerVC struct {
	queues     map[cell.VCI]*mapVCQueue
	byOutput   map[int]map[cell.VCI]struct{}
	perVCLimit int
	total      int
	rr         map[int]cell.VCI
	bits       []uint64
}

type mapVCQueue struct {
	cells  []queued
	head   int
	output int
}

func (q *mapVCQueue) len() int { return len(q.cells) - q.head }

func newMapPerVC(perVCLimit int) *mapPerVC {
	return &mapPerVC{
		queues:     make(map[cell.VCI]*mapVCQueue),
		byOutput:   make(map[int]map[cell.VCI]struct{}),
		perVCLimit: perVCLimit,
		rr:         make(map[int]cell.VCI),
	}
}

func (p *mapPerVC) Push(c cell.Cell, output int) bool {
	q := p.queues[c.VC]
	if q != nil && q.output != output {
		return false
	}
	if q == nil {
		q = &mapVCQueue{output: output}
		p.queues[c.VC] = q
	}
	if p.perVCLimit > 0 && q.len() >= p.perVCLimit {
		return false
	}
	q.cells = append(q.cells, queued{c: c, output: output})
	q.output = output
	p.total++
	set := p.byOutput[output]
	if set == nil {
		set = make(map[cell.VCI]struct{})
		p.byOutput[output] = set
	}
	set[c.VC] = struct{}{}
	w := output / 64
	for len(p.bits) <= w {
		p.bits = append(p.bits, 0)
	}
	p.bits[w] |= 1 << (uint(output) % 64)
	return true
}

func (p *mapPerVC) clearBit(o int) {
	if w := o / 64; w < len(p.bits) {
		p.bits[w] &^= 1 << (uint(o) % 64)
	}
}

func (p *mapPerVC) Eligible() []int {
	out := make([]int, 0, len(p.byOutput))
	for o, set := range p.byOutput {
		if len(set) > 0 {
			out = append(out, o)
		}
	}
	sort.Ints(out)
	return out
}

func (p *mapPerVC) Pop(output int) (cell.Cell, bool) {
	set := p.byOutput[output]
	if len(set) == 0 {
		return cell.Cell{}, false
	}
	vc := p.pickRR(output, set)
	q := p.queues[vc]
	item := q.cells[q.head]
	q.head++
	p.total--
	if q.len() == 0 {
		delete(p.queues, vc)
		delete(set, vc)
		if len(set) == 0 {
			delete(p.byOutput, output)
			p.clearBit(output)
		}
	}
	p.rr[output] = vc
	return item.c, true
}

func (p *mapPerVC) pickRR(output int, set map[cell.VCI]struct{}) cell.VCI {
	last, served := p.rr[output]
	var best, wrap cell.VCI
	haveBest, haveWrap := false, false
	for vc := range set {
		if !haveWrap || vc < wrap {
			wrap = vc
			haveWrap = true
		}
		if served && vc <= last {
			continue
		}
		if !haveBest || vc < best {
			best = vc
			haveBest = true
		}
	}
	if haveBest {
		return best
	}
	return wrap
}

func (p *mapPerVC) CountVC(vc cell.VCI) int {
	if q := p.queues[vc]; q != nil {
		return q.len()
	}
	return 0
}

func (p *mapPerVC) Drop(vc cell.VCI) int {
	q := p.queues[vc]
	if q == nil {
		return 0
	}
	n := q.len()
	p.total -= n
	delete(p.queues, vc)
	if set := p.byOutput[q.output]; set != nil {
		delete(set, vc)
		if len(set) == 0 {
			delete(p.byOutput, q.output)
			p.clearBit(q.output)
		}
	}
	return n
}

func (p *mapPerVC) ForEach(fn func(c cell.Cell, output int)) {
	vcs := make([]cell.VCI, 0, len(p.queues))
	for vc := range p.queues {
		vcs = append(vcs, vc)
	}
	sort.Slice(vcs, func(i, j int) bool { return vcs[i] < vcs[j] })
	for _, vc := range vcs {
		q := p.queues[vc]
		for _, it := range q.cells[q.head:] {
			fn(it.c, it.output)
		}
	}
}

func (p *mapPerVC) ForEachRR(fn func(output int, vc cell.VCI)) {
	outs := make([]int, 0, len(p.rr))
	for o := range p.rr {
		outs = append(outs, o)
	}
	sort.Ints(outs)
	for _, o := range outs {
		fn(o, p.rr[o])
	}
}

func (p *mapPerVC) ShiftStamps(dt int64, seqShift func(vc cell.VCI) uint64) {
	for vc, q := range p.queues {
		var ds uint64
		if seqShift != nil {
			ds = seqShift(vc)
		}
		for i := q.head; i < len(q.cells); i++ {
			q.cells[i].c.Stamp.EnqueuedAt += dt
			q.cells[i].c.Stamp.Seq += ds
		}
	}
}

func (p *mapPerVC) DropAll() int {
	n := p.total
	clear(p.queues)
	clear(p.byOutput)
	clear(p.bits)
	p.total = 0
	return n
}

// opVCs and opOutputs are the circuits and outputs op streams draw from:
// few enough that circuits collide on outputs and drain often, with VCIs
// spread out (including 0 and the largest 24-bit VCI) and outputs past
// the first bitset word.
var (
	opVCs     = []cell.VCI{0, 1, 2, 3, 7, 100, 101, 1 << 20, 1<<24 - 1}
	opOutputs = []int{0, 1, 2, 3, 63, 64, 130}
)

// checkPerVCOps decodes data into an op sequence — the first byte picks
// the per-circuit limit, then each op takes two bytes — and applies it to
// a PerVC and to the map-based oracle, failing at the first op after
// which any observable differs.
func checkPerVCOps(t testing.TB, data []byte) {
	if len(data) == 0 {
		return
	}
	limit := int(data[0] % 5) // 0 = unbounded
	data = data[1:]
	got, want := NewPerVC(limit), newMapPerVC(limit)
	var seq uint64
	for op := 0; len(data) >= 2; op, data = op+1, data[2:] {
		a, b := data[0], data[1]
		vc := opVCs[int(b)%len(opVCs)]
		out := opOutputs[int(b/16)%len(opOutputs)]
		var what string
		switch a % 16 {
		case 0, 1, 2, 3, 4, 5, 6:
			what = fmt.Sprintf("Push(vc %d, out %d)", vc, out)
			c := mk(vc, seq)
			c.Stamp.EnqueuedAt = int64(op)
			seq++
			if g, w := got.Push(c, out), want.Push(c, out); g != w {
				t.Fatalf("op %d %s = %v, oracle %v", op, what, g, w)
			}
		case 7, 8, 9, 10, 11:
			what = fmt.Sprintf("Pop(%d)", out)
			gc, gok := got.Pop(out)
			wc, wok := want.Pop(out)
			if gc != wc || gok != wok {
				t.Fatalf("op %d %s = %+v %v, oracle %+v %v", op, what, gc, gok, wc, wok)
			}
		case 12, 13:
			what = fmt.Sprintf("Drop(%d)", vc)
			if g, w := got.Drop(vc), want.Drop(vc); g != w {
				t.Fatalf("op %d %s = %d, oracle %d", op, what, g, w)
			}
		case 14:
			what = "DropAll"
			if g, w := got.DropAll(), want.DropAll(); g != w {
				t.Fatalf("op %d %s = %d, oracle %d", op, what, g, w)
			}
		case 15:
			what = fmt.Sprintf("ShiftStamps(%d)", b)
			var shift func(cell.VCI) uint64
			if b%2 == 1 {
				shift = func(vc cell.VCI) uint64 { return uint64(vc)%7 + 1 }
			}
			got.ShiftStamps(int64(b), shift)
			want.ShiftStamps(int64(b), shift)
		}
		comparePerVC(t, fmt.Sprintf("after op %d %s", op, what), got, want)
	}
}

// comparePerVC fails unless every observable of p matches the oracle.
func comparePerVC(t testing.TB, when string, p *PerVC, o *mapPerVC) {
	if p.Len() != o.total {
		t.Fatalf("%s: Len %d, oracle %d", when, p.Len(), o.total)
	}
	if p.Circuits() != len(o.queues) {
		t.Fatalf("%s: Circuits %d, oracle %d", when, p.Circuits(), len(o.queues))
	}
	if !slices.Equal(p.EligibleBits(), o.bits) {
		t.Fatalf("%s: EligibleBits %b, oracle %b", when, p.EligibleBits(), o.bits)
	}
	if !slices.Equal(p.Eligible(), o.Eligible()) {
		t.Fatalf("%s: Eligible %v, oracle %v", when, p.Eligible(), o.Eligible())
	}
	for _, vc := range opVCs {
		if g, w := p.CountVC(vc), o.CountVC(vc); g != w {
			t.Fatalf("%s: CountVC(%d) %d, oracle %d", when, vc, g, w)
		}
	}
	type item struct {
		c   cell.Cell
		out int
	}
	var gi, wi []item
	p.ForEach(func(c cell.Cell, out int) { gi = append(gi, item{c, out}) })
	o.ForEach(func(c cell.Cell, out int) { wi = append(wi, item{c, out}) })
	if !slices.Equal(gi, wi) {
		t.Fatalf("%s: ForEach\n got %+v\nwant %+v", when, gi, wi)
	}
	type ptr struct {
		out int
		vc  cell.VCI
	}
	var gr, wr []ptr
	p.ForEachRR(func(out int, vc cell.VCI) { gr = append(gr, ptr{out, vc}) })
	o.ForEachRR(func(out int, vc cell.VCI) { wr = append(wr, ptr{out, vc}) })
	if !slices.Equal(gr, wr) {
		t.Fatalf("%s: ForEachRR %v, oracle %v", when, gr, wr)
	}
}

// Seeded random op streams, with and without a per-circuit limit, must
// leave PerVC and the map-based oracle indistinguishable after every op.
func TestPerVCMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1+2*(50+rng.Intn(400)))
		rng.Read(data)
		checkPerVCOps(t, data)
	}
}

func FuzzPerVCOps(f *testing.F) {
	// The two-output corruption: push vc 1 to outputs 0 and 1, pop both,
	// pop 0 again.
	f.Add([]byte{0, 0, 0x01, 0, 0x11, 7, 0x01, 7, 0x11, 7, 0x01})
	f.Add([]byte{3, 0, 5, 0, 5, 0, 5, 0, 5, 7, 5, 12, 5, 14, 0, 15, 3})
	f.Fuzz(func(t *testing.T, data []byte) { checkPerVCOps(t, data) })
}

// BenchmarkPerVCManyVCs drives one buffer holding 2,048 circuits over 16
// outputs, the switch benchmark's circuit count: every push names a
// circuit with cells already queued, and every pop picks among 128
// circuits on its output.
func BenchmarkPerVCManyVCs(b *testing.B) {
	const vcs, outs = 2048, 16
	p := NewPerVC(0)
	for v := 0; v < vcs; v++ {
		for k := 0; k < 4; k++ {
			p.Push(mk(cell.VCI(v+1), 0), v%outs)
		}
	}
	order := rand.New(rand.NewSource(1)).Perm(vcs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := order[i%vcs]
		p.Push(mk(cell.VCI(v+1), uint64(i)), v%outs)
		p.Pop(v % outs)
	}
}
