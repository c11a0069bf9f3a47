package switchnode

import (
	"testing"

	"repro/internal/cell"
)

// saturatedRig builds the slot-engine hot path: a saturated n-port per-VC
// switch with uniform traffic, and a refill that keeps every input holding
// cells for several outputs. This is the loop the zero-allocation work
// targets.
func saturatedRig(tb testing.TB, n int) (s *Switch, refill func()) {
	s, err := New(Config{N: n, Discipline: DisciplinePerVC, FrameSlots: 16, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	// One circuit per (input, offset) pair, spreading each input's backlog
	// over four outputs.
	vc := func(in, k int) cell.VCI { return cell.VCI(1 + in*4 + k) }
	refill = func() {
		for in := 0; in < n; in++ {
			for k := 0; k < 4; k++ {
				out := (in + k) % n
				if s.BufferedBestEffort(in) < 8*n {
					s.EnqueueBestEffort(in, cell.Cell{VC: vc(in, k), Class: cell.BestEffort}, out)
				}
			}
		}
	}
	for i := 0; i < 4; i++ {
		refill()
	}
	return s, refill
}

func benchStep(b *testing.B, n int) {
	s, refill := saturatedRig(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refill()
		s.Step()
	}
}

func BenchmarkStep16(b *testing.B) { benchStep(b, 16) }
func BenchmarkStep64(b *testing.B) { benchStep(b, 64) }

// The BenchmarkStep16/64 loop allocates nothing once warm.
func TestStepLoopZeroAllocs(t *testing.T) {
	for _, n := range []int{16, 64} {
		s, refill := saturatedRig(t, n)
		for i := 0; i < 100; i++ {
			refill()
			s.Step()
		}
		if a := testing.AllocsPerRun(200, func() { refill(); s.Step() }); a != 0 {
			t.Errorf("n=%d: refill+Step allocates %.1f times per slot", n, a)
		}
	}
}

func BenchmarkStepFIFO16(b *testing.B) {
	s, err := New(Config{N: 16, Discipline: DisciplineFIFO, FrameSlots: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for in := 0; in < 16; in++ {
			s.EnqueueBestEffort(in, cell.Cell{VC: cell.VCI(1 + in), Class: cell.BestEffort}, (in+i)%16)
		}
		s.Step()
	}
}
