package engine

import (
	"sync"

	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/query"
)

// spanWork is what a pool call fans out: evalSpan(lo, hi) does the units
// [lo, hi) of the work, and calls on disjoint spans may run concurrently.
type spanWork interface {
	evalSpan(lo, hi int)
}

// spanTask is one span handed to a worker, by value: no closure and no
// allocation per hand-off.
type spanTask struct {
	work   spanWork
	lo, hi int
	done   *sync.WaitGroup
}

// computePool is the bounded worker pool batch kernel evaluation fans out
// on. The engine used to spawn fresh goroutines for every batch; the pool
// amortizes that over the run — workers are started once and fed spans
// over an unbuffered channel. run may be called concurrently from
// multiple goroutines (each call tracks its own completion), which the
// race stress test exercises.
type computePool struct {
	tasks chan spanTask
	wg    sync.WaitGroup // worker lifetimes
}

// newComputePool starts workers goroutines (at least one).
func newComputePool(workers int) *computePool {
	if workers < 1 {
		workers = 1
	}
	p := &computePool{tasks: make(chan spanTask)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				t.work.evalSpan(t.lo, t.hi)
				t.done.Done()
			}
		}()
	}
	return p
}

// run executes work over the consecutive spans [cuts[i], cuts[i+1]) —
// the first on the calling goroutine, the others on the pool — and
// returns when all have completed. Each unit is executed exactly once.
// done is the caller's, idle on entry and again on return.
func (p *computePool) run(work spanWork, cuts []int, done *sync.WaitGroup) {
	if len(cuts) < 2 {
		return
	}
	done.Add(len(cuts) - 2)
	for i := 1; i+1 < len(cuts); i++ {
		p.tasks <- spanTask{work: work, lo: cuts[i], hi: cuts[i+1], done: done}
	}
	work.evalSpan(cuts[0], cuts[1])
	done.Wait()
}

// close shuts the pool down and waits for the workers to drain. No run
// call may be in flight or issued afterwards.
func (p *computePool) close() {
	close(p.tasks)
	p.wg.Wait()
}

// closePool tears down the engine's worker pool, if one was started.
func (e *Engine) closePool() {
	if e.pool != nil {
		e.pool.close()
		e.pool = nil
	}
}

// computeUnit is one sub-query of a batch and where its samples go; a nil
// out means they go nowhere.
type computeUnit struct {
	sq  *query.SubQuery
	out []PointSample
}

// work estimates the unit's evaluation cost, in stencil samples.
func (u computeUnit) work() int {
	return len(u.sq.Points) * stencilSamples(u.sq.Query.Kernel)
}

// computeJob is the kernel evaluation of one batch: every unit reads the
// batch's atom and writes its own range of a result array, so spans share
// nothing they write. The engine owns one and reuses it batch after
// batch.
type computeJob struct {
	atom  *field.Atom
	space geom.Space
	units []computeUnit
	cuts  []int
	wg    sync.WaitGroup
}

func (j *computeJob) evalSpan(lo, hi int) {
	for _, u := range j.units[lo:hi] {
		ac := geom.AtomFromCode(u.sq.Atom.Code)
		for p, pos := range u.sq.Points {
			val := field.Interpolate(u.sq.Query.Kernel, j.atom, j.space, ac, pos)
			if u.out != nil {
				u.out[p] = PointSample{Pos: geom3{X: pos.X, Y: pos.Y, Z: pos.Z}, Val: val}
			}
		}
	}
}

// minSpanSamples is the least work, in stencil samples, that repays
// handing a span to another goroutine; a batch with less than twice this
// is evaluated where it is. Measured (EXPERIMENTS.md): a hand-off through
// the pool to a parked worker — channel send, wake-up, WaitGroup — costs
// about 6 µs at the median and 20 µs at p90 (BenchmarkComputePoolHandOff),
// and field.Interpolate about 4 ns per stencil sample for every Lagrange
// kernel (BenchmarkInterpolateLag4: 300 ns for 64), so a span of this
// size is about 33 µs of evaluation, five median hand-offs.
const minSpanSamples = 8192

// stencilSamples is the number of grid samples one position of kernel k
// reads, which its evaluation time is proportional to.
func stencilSamples(k field.Kernel) int {
	n := 2 * k.StencilRadius()
	if n == 0 {
		return 1
	}
	return n * n * n
}

// cut splits the units into at most `spans` consecutive ranges of about
// equal work (total being the sum over the units), leaving the boundaries
// in cuts.
func (j *computeJob) cut(spans, total int) {
	j.cuts = append(j.cuts[:0], 0)
	acc := 0
	for i, u := range j.units[:len(j.units)-1] {
		acc += u.work()
		if next := len(j.cuts); next < spans && acc*spans >= next*total {
			j.cuts = append(j.cuts, i+1)
		}
	}
	j.cuts = append(j.cuts, len(j.units))
}
