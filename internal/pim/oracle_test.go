package pim

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/matching"
)

// listSequential is the list-based sequential engine the bitset engine
// replaced: per-output request lists and per-input grant lists, built in
// ascending order and indexed by rng.Intn. It is kept as the oracle the
// bitset engine must reproduce draw for draw.
type listSequential struct {
	rng        *rand.Rand
	grants     [][]int // grants[i] = outputs granting to input i this iteration
	requests   [][]int // requests[j] = inputs requesting output j this iteration
	inMatched  []bool
	outOwner   []int
	match      matching.Matching
	newMatches []int
}

func newListSequential(rng *rand.Rand) *listSequential {
	return &listSequential{rng: rng}
}

func (s *listSequential) ensure(n int) {
	if len(s.inMatched) < n {
		s.grants = make([][]int, n)
		s.requests = make([][]int, n)
		s.inMatched = make([]bool, n)
		s.outOwner = make([]int, n)
		s.match = make(matching.Matching, n)
	}
}

func (s *listSequential) Match(r *matching.Requests, maxIter int) Result {
	n := r.N()
	s.ensure(n)
	m := s.match[:n]
	m.Reset()
	for i := 0; i < n; i++ {
		s.inMatched[i] = false
		s.outOwner[i] = -1
	}
	res := Result{Match: m, NewMatches: s.newMatches[:0]}
	for iter := 0; maxIter == 0 || iter < maxIter; iter++ {
		added := s.iterate(r, m)
		res.Iterations++
		res.NewMatches = append(res.NewMatches, added)
		if added == 0 {
			break
		}
	}
	s.newMatches = res.NewMatches
	return res
}

func (s *listSequential) iterate(r *matching.Requests, m matching.Matching) int {
	n := r.N()
	for j := 0; j < n; j++ {
		s.requests[j] = s.requests[j][:0]
	}
	for i := 0; i < n; i++ {
		if s.inMatched[i] {
			continue
		}
		for w, word := range r.Row(i) {
			base := w * 64
			for word != 0 {
				j := base + bits.TrailingZeros64(word)
				word &= word - 1
				if s.outOwner[j] < 0 {
					s.requests[j] = append(s.requests[j], i)
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		s.grants[i] = s.grants[i][:0]
	}
	for j := 0; j < n; j++ {
		reqs := s.requests[j]
		if len(reqs) == 0 {
			continue
		}
		pick := reqs[s.rng.Intn(len(reqs))]
		s.grants[pick] = append(s.grants[pick], j)
	}
	added := 0
	for i := 0; i < n; i++ {
		gr := s.grants[i]
		if len(gr) == 0 {
			continue
		}
		j := gr[s.rng.Intn(len(gr))]
		m[i] = j
		s.inMatched[i] = true
		s.outOwner[j] = i
		added++
	}
	return added
}

// The bitset engine must return the list engine's Result exactly and leave
// the random stream at the same position, for single- and multi-word
// sizes, sparse to full request densities, bounded and quiescent budgets,
// and engines reused across calls and sizes.
func TestSequentialMatchesListOracle(t *testing.T) {
	sizes := []int{1, 8, 16, 63, 64, 65, 128}
	densities := []float64{0.02, 0.1, 0.3, 0.7, 1}
	for seed := int64(1); seed <= 4; seed++ {
		bitset := NewSequential(rand.New(rand.NewSource(seed)))
		list := newListSequential(rand.New(rand.NewSource(seed)))
		gen := rand.New(rand.NewSource(-seed))
		for _, n := range sizes {
			for _, p := range densities {
				for _, budget := range []int{1, DefaultIterations, 0} {
					r := uniformRequests(gen, n, p)
					got := bitset.Match(r, budget)
					want := list.Match(r, budget)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d n=%d p=%.2f budget %d:\nbitset %+v\nlist   %+v", seed, n, p, budget, got, want)
					}
					if err := got.Match.Legal(r); err != nil {
						t.Fatalf("seed %d n=%d p=%.2f: %v", seed, n, p, err)
					}
					if a, b := bitset.rng.Int63(), list.rng.Int63(); a != b {
						t.Fatalf("seed %d n=%d p=%.2f budget %d: next draw %d, list engine %d", seed, n, p, budget, a, b)
					}
				}
			}
		}
	}
}

// A warmed-up engine matches without allocating: the slot loop calls it
// once per slot.
func TestSequentialMatchZeroAllocs(t *testing.T) {
	for _, n := range []int{16, 128} {
		rng := rand.New(rand.NewSource(1))
		r := uniformRequests(rng, n, 0.4)
		seq := NewSequential(rng)
		seq.Match(r, 0)
		if a := testing.AllocsPerRun(100, func() { seq.Match(r, DefaultIterations) }); a != 0 {
			t.Errorf("n=%d: Match allocates %.1f times per call", n, a)
		}
	}
}

func BenchmarkListPIM16x3(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r := uniformRequests(rng, 16, 0.4)
	seq := newListSequential(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seq.Match(r, DefaultIterations)
	}
}
