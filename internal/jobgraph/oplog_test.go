package jobgraph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"jaws/internal/jobgraph"
	"jaws/internal/morton"
	"jaws/internal/oracle"
	"jaws/internal/oracle/difftest"
	"jaws/internal/store"
)

const (
	opsMaxJobID = 24
	opsMaxLen   = 12
	opsMaxAdds  = 48
)

// replay decodes l as an op log — register a job with its atom lists,
// complete schedulable queries, mark a query arrived, prune — and applies
// it through oracle.GatingPair to a Graph and to the oracle's ModelGraph
// side by side, comparing everything the two expose, and the graph's own
// tables, after every op. Job IDs are drawn from a small range in no
// particular order, so the dynamic program's orientation varies,
// duplicates are attempted, and a pruned ID (and its slot) comes back.
// At the end both are drained side by side (oracle.CheckDeadlockFree): the
// graphs must agree and finish, Fig. 4's guarantee. crossings is how many
// edges the model refused by its crossing scan, which Graph does not have.
//
// The head byte picks the jobs' lengths (jobLengths).
func replay(t difftest.TB, l *difftest.Log) (adds, pruned, crossings int) {
	lens := jobLengths(l.Byte())
	p := oracle.NewGatingPair(t)
	p.Check = jobgraph.CheckGraph
	for l.More() {
		op := l.Byte()
		id := int64(op>>3)%opsMaxJobID + 1
		switch {
		case op%8 < 2: // register
			n := lens.of(l.Byte())
			if adds == opsMaxAdds {
				continue
			}
			lists := make([][]store.AtomID, n)
			if !p.G.Registered(id) {
				for s := range lists {
					b := l.Byte()
					a1, a2 := int(b&7), int(b>>3&7)
					codes := [][]int{{a1}, {a1, a2}, {a1, a2, (a1 + a2) % 8}, {}}[b>>6]
					for _, c := range codes {
						lists[s] = append(lists[s], store.AtomID{Step: c & 1, Code: morton.Code(c >> 1)})
					}
				}
			}
			if p.Register(id, lists) == nil {
				adds++
			}
		case op%8 < 6: // complete up to four schedulable queries
			for k := 0; k <= int(op>>6); k++ {
				ready := p.M.Schedulable()
				if len(ready) == 0 {
					break
				}
				p.Serve(ready[int(op>>3&7)%len(ready)])
			}
		case op%8 == 6: // a query reaches the scheduler
			p.Arrive(jobgraph.Ref{Job: id, Seq: int(l.Byte()) % lens.hi})
		default:
			pruned += p.Prune()
		}
	}
	crossings = p.M.Crossings()
	for _, d := range oracle.CheckDeadlockFree(p.G, p.M) {
		t.Fatalf("draining the graphs after the log: %s", d)
	}
	return adds, pruned, crossings
}

// lengths is the range of job lengths an op log registers.
type lengths struct{ lo, hi int }

// jobLengths reads a log's head byte. A head of 64 registers jobs of 33–64
// queries, whose share-matrix rows fill a word's upper half, and 130 jobs
// of 65–130, whose rows span words. Every other head registers jobs of
// 1–opsMaxLen queries; no seeded log of TestGraphMatchesReference and no
// committed fuzz seed starts with 64 or 130, so those logs decode as they
// were written.
func jobLengths(head byte) lengths {
	switch head {
	case 64:
		return lengths{33, 64}
	case 130:
		return lengths{65, 130}
	}
	return lengths{1, opsMaxLen}
}

// of decodes a register op's length byte.
func (r lengths) of(b byte) int {
	if r.hi == opsMaxLen {
		return int(b&15)%opsMaxLen + 1
	}
	return r.lo + int(b)%(r.hi-r.lo+1)
}

// The dense-table graph must be indistinguishable from the oracle's model
// over random op logs: both merge orders, completions, arrivals and prunes
// between registrations, on short jobs and on jobs long enough that a
// share-matrix row reaches past bit 31 or spans words.
func TestGraphMatchesReference(t *testing.T) {
	for _, head := range []byte{64, 130} {
		t.Run(fmt.Sprintf("head=%d", head), func(t *testing.T) {
			const logs = 4
			adds := 0
			difftest.Seeds(t, difftest.Gen{N: logs, Head: []byte{head}, Min: 400, Span: 200}, func(t difftest.TB, l *difftest.Log) {
				a, _, _ := replay(t, l)
				adds += a
			})
			if adds < 2*logs {
				t.Fatalf("%d long-job logs registered only %d jobs: too few to share", logs, adds)
			}
		})
	}
	seeds := 200
	if testing.Short() {
		seeds = 60
	}
	adds, pruned, crossings := 0, 0, 0
	difftest.Seeds(t, difftest.Gen{N: seeds, Min: 100, Span: 500}, func(t difftest.TB, l *difftest.Log) {
		a, p, c := replay(t, l)
		adds, pruned, crossings = adds+a, pruned+p, crossings+c
	})
	t.Logf("%d op logs: %d jobs registered, %d pruned, %d edges refused by the model's crossing scan", seeds, adds, pruned, crossings)
	if pruned < seeds {
		t.Fatalf("op logs pruned only %d jobs: the generator no longer reaches Prune's interesting cases", pruned)
	}
	// Graph refuses a crossing edge by its level check, without the scan
	// (admitEdge): the op logs must keep reaching the case.
	if crossings < seeds {
		t.Fatalf("the model's crossing scan refused only %d edges: the generator no longer certifies that Graph refuses them too", crossings)
	}
}

func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{0, 0, 2, 1, 9, 8, 3, 9, 1, 4, 4, 7, 16, 1, 1})
	f.Add([]byte{1, 1, 19, 1, 2, 3, 9, 4, 65, 66, 67, 2, 2, 7, 0, 5, 1, 1, 1, 1, 1})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		data := make([]byte, 200)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		replay(t, difftest.NewLog(data[:min(len(data), 1024)])) // an op costs a full comparison: bound the log
	})
}

// The bit-row Aligner must agree with the oracle's alignment on random
// share relations, including rows of more than one word, on a fresh
// Aligner and after arena reuse (one Aligner across the trials).
func TestAlignerAppendRowMatchesAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var al jobgraph.Aligner
	for trial := 0; trial < 300; trial++ {
		lenA, lenB := rng.Intn(9)+1, rng.Intn(9)+1
		if trial%10 == 0 {
			lenA, lenB = rng.Intn(150)+1, rng.Intn(150)+1
		}
		shares := make([]bool, lenA*lenB)
		for i := range shares {
			shares[i] = rng.Intn(3) == 0
		}
		share := func(i, j int) bool { return shares[i*lenB+j] }
		want := oracle.ModelAlign(lenA, lenB, share)
		if got := jobgraph.AlignWith(new(jobgraph.Aligner), lenA, lenB, share); !slices.Equal(got, want) {
			t.Fatalf("trial %d: fresh %v vs %v", trial, got, want)
		}
		if got := jobgraph.AlignWith(&al, lenA, lenB, share); !slices.Equal(got, want) {
			t.Fatalf("trial %d: reused %v vs %v", trial, got, want)
		}
	}
}
