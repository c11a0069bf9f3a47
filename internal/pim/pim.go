// Package pim implements AN2's parallel iterative matching (paper §3), the
// algorithm that pairs crossbar inputs with outputs every cell slot.
//
// Each iteration has three steps, executed independently and in parallel at
// each port with no centralized scheduler:
//
//  1. Request: every unmatched input sends a request to every output it has
//     a buffered cell for.
//  2. Grant: every unmatched output that received requests grants one of
//     them uniformly at random.
//  3. Accept: every input that received grants accepts one and notifies the
//     output.
//
// Iterating "fills in the gaps": matches from previous iterations are
// retained, and repetition to quiescence yields a maximal matching. AN2's
// hardware budget allows three iterations per slot.
//
// The package provides two engines that implement the same algorithm:
//
//   - Sequential: a deterministic single-goroutine engine, used by the
//     slotted simulator (fast, reproducible under a seed).
//   - Concurrent: one goroutine per input and per output, with the
//     request/grant/accept signals carried on dedicated channels exactly as
//     the hardware uses dedicated wires. It exists to demonstrate that the
//     algorithm is genuinely distributed, and is cross-checked against the
//     sequential engine in the tests.
package pim

import (
	"math/bits"
	"math/rand"
	"sync"

	"repro/internal/matching"
)

// DefaultIterations is AN2's per-slot iteration budget (paper §3: "Because
// of its time limit, AN2 uses just three iterations").
const DefaultIterations = 3

// Result describes one run of the matcher.
//
// For Sequential engines, Match and NewMatches alias per-engine scratch
// buffers: they are valid until the engine's next Match call, so callers
// that retain a result across runs must copy it. The slotted simulator
// consumes each result within its slot, which is what makes the engine
// allocation-free on the hot path.
type Result struct {
	// Match is the computed matching (input -> output, -1 if unmatched).
	Match matching.Matching
	// Iterations is the number of iterations executed (for bounded runs
	// it is at most the budget; for runs to quiescence it is the number
	// of iterations until no new match was added, including the final
	// empty one).
	Iterations int
	// NewMatches[k] is the number of pairs added on iteration k.
	NewMatches []int
}

// Sequential is the deterministic PIM engine. It is not safe for concurrent
// use; the slotted simulator owns one per switch.
//
// It works on bitsets of ⌈n/64⌉ words: one request column per output (bit
// i set iff input i requests it), built once per Match, and one grant row
// per input (bit j set iff output j granted it). An iteration masks each
// free output's column with the free inputs. A random pick among the c set
// bits of a column or row draws rng.Intn(c) and takes the k-th set bit in
// ascending order, so it consumes the random stream exactly as picking
// from an ascending list would.
type Sequential struct {
	rng *rand.Rand
	// scratch, reused across runs to avoid per-slot allocation:
	words      int               // stride of reqCols and grantRows
	reqCols    []uint64          // reqCols[j*words:][:words] = inputs requesting output j
	grantRows  []uint64          // grantRows[i*words:][:words] = outputs granting input i
	pick       []uint64          // a column masked by freeIn
	granted    []uint64          // inputs with a grant this iteration
	freeIn     []uint64          // inputs still unmatched
	freeOut    []uint64          // outputs still unmatched
	match      matching.Matching // backs Result.Match
	newMatches []int             // backs Result.NewMatches
}

// NewSequential creates a sequential engine drawing randomness from rng.
func NewSequential(rng *rand.Rand) *Sequential {
	return &Sequential{rng: rng}
}

func (s *Sequential) ensure(n int) {
	if len(s.match) < n {
		w := matching.WordsFor(n)
		s.words = w
		s.reqCols = make([]uint64, n*w)
		s.grantRows = make([]uint64, n*w)
		s.pick = make([]uint64, w)
		s.granted = make([]uint64, w)
		s.freeIn = make([]uint64, w)
		s.freeOut = make([]uint64, w)
		s.match = make(matching.Matching, n)
	}
}

// Match runs at most maxIter iterations (0 means run to quiescence, i.e.
// until an iteration adds no pair, which yields a maximal matching). The
// result's Match and NewMatches alias engine scratch (see Result).
func (s *Sequential) Match(r *matching.Requests, maxIter int) Result {
	n := r.N()
	s.ensure(n)
	m := s.match[:n]
	m.Reset()
	w := matching.WordsFor(n)
	for k := 0; k < w; k++ {
		s.freeIn[k] = ^uint64(0)
		s.freeOut[k] = ^uint64(0)
	}
	if extra := w*64 - n; extra > 0 {
		s.freeIn[w-1] >>= uint(extra)
		s.freeOut[w-1] >>= uint(extra)
	}
	// Transpose the request rows into per-output columns.
	sw := s.words
	cols := s.reqCols[:n*sw]
	zero(cols)
	for i := 0; i < n; i++ {
		iw, ibit := i/64, uint64(1)<<(uint(i)%64)
		for ow, word := range r.Row(i) {
			for ; word != 0; word &= word - 1 {
				cols[(ow*64+bits.TrailingZeros64(word))*sw+iw] |= ibit
			}
		}
	}
	res := Result{Match: m, NewMatches: s.newMatches[:0]}
	for iter := 0; maxIter == 0 || iter < maxIter; iter++ {
		added := s.iterate(n, m)
		res.Iterations++
		res.NewMatches = append(res.NewMatches, added)
		if added == 0 {
			break
		}
	}
	s.newMatches = res.NewMatches
	return res
}

// iterate executes one request/grant/accept round over the n×n request
// columns, updating m in place and returning the number of new pairs.
// Every grant row is zero on entry and is zeroed again as it is consumed.
func (s *Sequential) iterate(n int, m matching.Matching) int {
	sw := s.words
	w := matching.WordsFor(n)
	pick, granted := s.pick[:w], s.granted[:w]
	// Steps 1 and 2 — request and grant: each unmatched input requests
	// every output it has a cell for, and each unmatched output grants one
	// request uniformly at random. (Outputs already matched in a previous
	// iteration ignore requests; inputs need not know which outputs are
	// taken.) An output's requests are its column masked by the free
	// inputs.
	for ow := 0; ow < w; ow++ {
		for outs := s.freeOut[ow]; outs != 0; outs &= outs - 1 {
			j := ow*64 + bits.TrailingZeros64(outs)
			col := s.reqCols[j*sw : j*sw+w]
			c := 0
			for k := range pick {
				pick[k] = col[k] & s.freeIn[k]
				c += bits.OnesCount64(pick[k])
			}
			if c == 0 {
				continue
			}
			i := nthSet(pick, s.rng.Intn(c))
			s.grantRows[i*sw+ow] |= 1 << (uint(j) % 64)
			granted[i/64] |= 1 << (uint(i) % 64)
		}
	}
	// Step 3 — accept: each input with grants accepts one. The paper lets
	// the input choose arbitrarily; we pick uniformly at random, matching
	// the hardware's unbiased arbiter.
	added := 0
	for iw := 0; iw < w; iw++ {
		for ins := granted[iw]; ins != 0; ins &= ins - 1 {
			i := iw*64 + bits.TrailingZeros64(ins)
			row := s.grantRows[i*sw : i*sw+w]
			j := nthSet(row, s.rng.Intn(popcount(row)))
			zero(row)
			m[i] = j
			s.freeIn[iw] &^= 1 << (uint(i) % 64)
			s.freeOut[j/64] &^= 1 << (uint(j) % 64)
			added++
		}
		granted[iw] = 0
	}
	return added
}

// popcount returns the number of set bits in b.
func popcount(b []uint64) int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// zero clears b word by word: the bitsets here are a few words, too short
// to repay a call to the runtime's memclr.
func zero(b []uint64) {
	for k := 0; k < len(b); k++ {
		b[k] = 0
	}
}

// nthSet returns the index of the k-th (0-based, ascending) set bit of b;
// k must be below popcount(b).
func nthSet(b []uint64, k int) int {
	for wi, w := range b {
		if c := bits.OnesCount64(w); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			w &= w - 1
		}
		return wi*64 + bits.TrailingZeros64(w)
	}
	return -1
}

// Concurrent runs the same protocol with one goroutine per input port and
// one per output port. The request/grant/accept signals travel on dedicated
// channels, one in each direction between each input and output, mirroring
// the dedicated wires of the AN2 switch.
type Concurrent struct {
	n    int
	seed int64
}

// NewConcurrent creates a concurrent engine for an n×n switch. Each Match
// call spins up 2n goroutines and joins them before returning; seed makes
// the port-local random choices reproducible.
func NewConcurrent(n int, seed int64) *Concurrent {
	return &Concurrent{n: n, seed: seed}
}

// portMsg is one signal on a wire. Request and accept wires carry just the
// sender; grant wires carry granted=true/false so inputs can count
// responses without timing assumptions.
type portMsg struct {
	from    int
	granted bool
}

// Match runs maxIter iterations (must be >= 1) and returns the matching.
// The protocol per iteration is a barrier-synchronized exchange: every
// input sends exactly one message (request or no-request) to every output
// and vice versa, so no goroutine can run ahead.
func (c *Concurrent) Match(r *matching.Requests, maxIter int) Result {
	n := c.n
	if maxIter < 1 {
		maxIter = 1
	}
	// wires[i][j] carries input i -> output j; back[j][i] carries output j
	// -> input i. Buffered size 1: each wire holds at most one signal per
	// phase.
	toOut := make([][]chan portMsg, n)
	toIn := make([][]chan portMsg, n)
	for i := 0; i < n; i++ {
		toOut[i] = make([]chan portMsg, n)
		toIn[i] = make([]chan portMsg, n)
		for j := 0; j < n; j++ {
			toOut[i][j] = make(chan portMsg, 1)
			toIn[i][j] = make(chan portMsg, 1)
		}
	}

	m := matching.NewMatching(n)
	var mu sync.Mutex // guards m; written only by input goroutines
	var wg sync.WaitGroup

	// Input port process.
	input := func(i int) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(c.seed + int64(i)))
		matchedTo := -1
		wants := r.Outputs(i)
		for iter := 0; iter < maxIter; iter++ {
			// Phase 1: request every wanted output (or send no-request).
			for j := 0; j < n; j++ {
				req := false
				if matchedTo < 0 {
					for _, w := range wants {
						if w == j {
							req = true
							break
						}
					}
				}
				toOut[i][j] <- portMsg{from: i, granted: req}
			}
			// Phase 2: collect grants from every output.
			var grants []int
			for j := 0; j < n; j++ {
				g := <-toIn[j][i]
				if g.granted {
					grants = append(grants, j)
				}
			}
			// Phase 3: accept one grant (random), tell every output.
			accepted := -1
			if matchedTo < 0 && len(grants) > 0 {
				accepted = grants[rng.Intn(len(grants))]
				matchedTo = accepted
				mu.Lock()
				m[i] = accepted
				mu.Unlock()
			}
			for j := 0; j < n; j++ {
				toOut[i][j] <- portMsg{from: i, granted: j == accepted}
			}
		}
	}

	// Output port process.
	output := func(j int) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(c.seed + int64(c.n) + int64(j)))
		matched := false
		for iter := 0; iter < maxIter; iter++ {
			// Phase 1: receive request/no-request from every input.
			var reqs []int
			for i := 0; i < n; i++ {
				msg := <-toOut[i][j]
				if msg.granted && !matched {
					reqs = append(reqs, msg.from)
				}
			}
			// Phase 2: grant one randomly; notify every input.
			grantTo := -1
			if len(reqs) > 0 {
				grantTo = reqs[rng.Intn(len(reqs))]
			}
			for i := 0; i < n; i++ {
				toIn[j][i] <- portMsg{from: j, granted: i == grantTo}
			}
			// Phase 3: learn whether the grant was accepted.
			for i := 0; i < n; i++ {
				msg := <-toOut[i][j]
				if msg.granted {
					matched = true
				}
			}
		}
	}

	wg.Add(2 * n)
	for i := 0; i < n; i++ {
		go input(i)
		go output(i)
	}
	wg.Wait()
	return Result{Match: m, Iterations: maxIter}
}

// IterationStats runs PIM to quiescence `trials` times over request
// patterns drawn by gen, and returns the distribution of iterations needed
// to reach a maximal matching. The paper proves E[iterations] ≤ log2 N +
// 4/3 and reports that ≥98% of slots converge within 4 iterations for
// N=16 (experiment E3).
func IterationStats(rng *rand.Rand, gen func(*rand.Rand) *matching.Requests, trials int) (mean float64, withinK map[int]float64) {
	seq := NewSequential(rng)
	counts := make(map[int]int)
	total := 0
	for t := 0; t < trials; t++ {
		r := gen(rng)
		res := seq.Match(r, 0)
		// The last iteration adds nothing; iterations-to-maximal is the
		// count of productive iterations, except an all-empty pattern
		// converges in 0. For comparability with the paper we count the
		// iterations needed so the matching is maximal, i.e. productive
		// rounds.
		productive := res.Iterations - 1
		if productive < 0 {
			productive = 0
		}
		counts[productive]++
		total += productive
	}
	withinK = make(map[int]float64)
	cum := 0
	maxIter := 8 // always report at least withinK[0..8]
	for k := range counts {
		if k > maxIter {
			maxIter = k
		}
	}
	for k := 0; k <= maxIter; k++ {
		cum += counts[k]
		withinK[k] = float64(cum) / float64(trials)
	}
	return float64(total) / float64(trials), withinK
}
