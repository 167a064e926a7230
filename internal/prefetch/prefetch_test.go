package prefetch

import (
	"math/rand"
	"testing"

	"jaws/internal/geom"
	"jaws/internal/query"
	"jaws/internal/store"
)

func testSpace() geom.Space { return geom.Space{GridSide: 128, AtomSide: 32} }

// cloudQuery builds a query of n points jittered around center.
func cloudQuery(step int, center geom.Position, n int, sigma float64, seed int64) *query.Query {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Position, n)
	for i := range pts {
		pts[i] = geom.Wrap(geom.Position{
			X: center.X + rng.NormFloat64()*sigma,
			Y: center.Y + rng.NormFloat64()*sigma,
			Z: center.Z + rng.NormFloat64()*sigma,
		})
	}
	return &query.Query{ID: 1, Step: step, Points: pts}
}

func TestPredictNeedsHistory(t *testing.T) {
	p := New(testSpace())
	if got := p.Predict(1); got != nil {
		t.Fatalf("prediction with no history: %v", got)
	}
	p.Observe(1, cloudQuery(0, geom.Position{X: 1, Y: 1, Z: 1}, 20, 0.05, 1))
	if got := p.Predict(1); got != nil {
		t.Fatalf("prediction with one observation: %v", got)
	}
}

func TestPredictLinearDrift(t *testing.T) {
	sp := testSpace()
	p := New(sp)
	// A job drifting +0.4 in x per query, stepping +1 per query.
	c0 := geom.Position{X: 1.0, Y: 2.0, Z: 3.0}
	c1 := geom.Position{X: 1.4, Y: 2.0, Z: 3.0}
	c2 := geom.Position{X: 1.8, Y: 2.0, Z: 3.0} // the true next center
	p.Observe(7, cloudQuery(3, c0, 30, 0.05, 1))
	p.Observe(7, cloudQuery(4, c1, 30, 0.05, 2))
	got := p.Predict(7)
	if len(got) == 0 {
		t.Fatal("no prediction")
	}
	want := store.AtomID{Step: 5, Code: sp.AtomOf(c2).Code()}
	if got[0] != want {
		t.Fatalf("predicted %v, want %v first", got[0], want)
	}
}

func TestPredictStationaryJob(t *testing.T) {
	sp := testSpace()
	p := New(sp)
	c := geom.Position{X: 4, Y: 4, Z: 4}
	p.Observe(2, cloudQuery(5, c, 30, 0.05, 1))
	p.Observe(2, cloudQuery(5, c, 30, 0.05, 2))
	got := p.Predict(2)
	if len(got) == 0 {
		t.Fatal("no prediction")
	}
	if got[0].Step != 5 {
		t.Fatalf("stationary job predicted step %d, want 5", got[0].Step)
	}
	if got[0].Code != sp.AtomOf(c).Code() {
		t.Fatalf("stationary job predicted wrong atom")
	}
}

func TestPredictAcrossPeriodicBoundary(t *testing.T) {
	sp := testSpace()
	p := New(sp)
	// Drift crosses the domain seam: x = 6.0 → 6.2 → (wraps past 2π≈6.283).
	p.Observe(3, cloudQuery(0, geom.Position{X: 6.0, Y: 1, Z: 1}, 30, 0.03, 1))
	p.Observe(3, cloudQuery(1, geom.Position{X: 6.2, Y: 1, Z: 1}, 30, 0.03, 2))
	got := p.Predict(3)
	if len(got) == 0 {
		t.Fatal("no prediction")
	}
	wantAtom := sp.AtomOf(geom.Position{X: 6.4, Y: 1, Z: 1}) // wraps to ≈0.12
	if got[0].Code != wantAtom.Code() {
		t.Fatalf("periodic drift predicted %v, want %v", got[0], wantAtom)
	}
}

func TestPredictSpreadWidensFootprint(t *testing.T) {
	sp := testSpace()
	p := New(sp)
	// A wide cloud centred on an atom corner must predict several atoms.
	corner := geom.Position{X: 1.57, Y: 1.57, Z: 1.57} // atomLen ≈ 1.57 at this scale
	p.Observe(9, cloudQuery(0, corner, 200, 0.3, 1))
	p.Observe(9, cloudQuery(1, corner, 200, 0.3, 2))
	got := p.Predict(9)
	if len(got) < 2 {
		t.Fatalf("wide cloud predicted %d atoms, want several", len(got))
	}
}

func TestPredictionAccuracyOnDriftingJob(t *testing.T) {
	// End-to-end: predictions must cover the majority of atoms the next
	// query actually touches, for a drifting job over many steps.
	sp := testSpace()
	p := New(sp)
	center := geom.Position{X: 2, Y: 2, Z: 2}
	vel := geom.Position{X: 0.15, Y: -0.1, Z: 0.05}
	var hits, total int
	for i := 0; i < 20; i++ {
		q := cloudQuery(i, center, 40, 0.08, int64(i))
		if pred := p.Predict(1); i >= 2 {
			predicted := make(map[store.AtomID]bool, len(pred))
			for _, id := range pred {
				predicted[id] = true
			}
			for id := range query.Atoms(q, sp) {
				total++
				if predicted[id] {
					hits++
				}
			}
		}
		p.Observe(1, q)
		center = geom.Wrap(geom.Position{X: center.X + vel.X, Y: center.Y + vel.Y, Z: center.Z + vel.Z})
	}
	if total == 0 {
		t.Fatal("no atoms evaluated")
	}
	if cov := float64(hits) / float64(total); cov < 0.6 {
		t.Fatalf("prediction coverage %.2f, want ≥ 0.6", cov)
	}
}

func TestForget(t *testing.T) {
	p := New(testSpace())
	p.Observe(1, cloudQuery(0, geom.Position{X: 1, Y: 1, Z: 1}, 10, 0.05, 1))
	p.Observe(1, cloudQuery(1, geom.Position{X: 1, Y: 1, Z: 1}, 10, 0.05, 2))
	if len(p.hist) != 1 {
		t.Fatalf("Jobs = %d", len(p.hist))
	}
	p.Forget(1)
	if len(p.hist) != 0 {
		t.Fatal("Forget did not drop the job")
	}
	if p.Predict(1) != nil {
		t.Fatal("prediction after Forget")
	}
}

func TestObserveEmptyQueryIgnored(t *testing.T) {
	p := New(testSpace())
	p.Observe(1, &query.Query{ID: 1, Step: 0})
	if len(p.hist) != 0 {
		t.Fatal("empty query recorded")
	}
}
