package main

import (
	"encoding/json"
	"math/rand"
	"time"

	"jaws/internal/geom"
	"jaws/internal/server"
)

// serveSpec is one serve workload: the traffic sent to a jawsd booted with
// daemonFlags. Pool sizes, warm-up counts, open rates and latency limits
// were calibrated once on the seed commit (see README.md) and are frozen:
// changing one is a benchmark change.
type serveSpec struct {
	name string
	// pool is how many distinct requests the plan holds; the phases cycle
	// through it.
	pool int
	// warm is how many plan requests the untimed warm-up sends after the
	// cover requests.
	warm int
	// coverSteps lists the steps whose every atom the warm-up touches
	// first, so the resident-set workloads start with their working set
	// cached.
	coverSteps []int
	// openRate is the open phase's fixed arrival rate, about 20 % of the
	// seed's closed-loop capacity: far enough below it that the sandbox's
	// slow spells, which halve capacity for minutes, do not turn the phase
	// into an overload test whose latency is the backlog.
	openRate float64
	// limit is the open-phase latency limit behind slo_miss_frac.
	limit time.Duration
	// gen draws the i-th request of the plan.
	gen func(rng *rand.Rand, i int) server.QueryRequest
}

var serveSpecs = []serveSpec{
	{
		// 512 atoms of working set against a 256-atom cache: atom
		// materialisation and eviction dominate.
		name: "serve-cold", pool: 4096, warm: 80,
		openRate: 30, limit: 60 * time.Millisecond,
		gen: func(rng *rand.Rand, _ int) server.QueryRequest {
			return pointRequest(rng, rng.Intn(daemonSteps), 8)
		},
	},
	{
		// Step 0 only: 64 atoms, all resident after warm-up, so the store
		// is never read and per-request overhead is all that is left.
		name: "serve-hot", pool: 8192, warm: 1000, coverSteps: []int{0},
		openRate: 1000, limit: 5 * time.Millisecond,
		gen: func(rng *rand.Rand, _ int) server.QueryRequest {
			return pointRequest(rng, 0, 8)
		},
	},
	{
		// Steps 0-2 resident (192 atoms); few large requests of three
		// classes, so the codec, PreProcess, Interpolate and the
		// derivative assembly dominate.
		name: "serve-bulk", pool: 768, warm: 60, coverSteps: []int{0, 1, 2},
		openRate: 80, limit: 25 * time.Millisecond,
		gen: func(rng *rand.Rand, i int) server.QueryRequest {
			switch i % 3 {
			case 0:
				return boxRequest(rng, rng.Intn(3), 8, 0.6)
			case 1:
				return pointRequest(rng, rng.Intn(3), 512)
			default:
				r := pointRequest(rng, 0, 170)
				r.DerivSteps = 3
				return r
			}
		},
	},
}

func uniformPoint(rng *rand.Rand) server.Point {
	return server.Point{
		X: rng.Float64() * geom.DomainSide,
		Y: rng.Float64() * geom.DomainSide,
		Z: rng.Float64() * geom.DomainSide,
	}
}

// pointRequest is n positions uniform over the domain at one step.
func pointRequest(rng *rand.Rand, step, n int) server.QueryRequest {
	r := server.QueryRequest{Step: step, Kernel: "lag4", Points: make([]server.Point, n)}
	for i := range r.Points {
		r.Points[i] = uniformPoint(rng)
	}
	return r
}

// boxRequest is a side³ lattice filling an axis-aligned box of the given
// edge length at a uniform corner (positions past the seam wrap server-side).
func boxRequest(rng *rand.Rand, step, side int, edge float64) server.QueryRequest {
	c := uniformPoint(rng)
	h := edge / float64(side-1)
	r := server.QueryRequest{Step: step, Kernel: "lag4", Points: make([]server.Point, 0, side*side*side)}
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			for k := 0; k < side; k++ {
				r.Points = append(r.Points, server.Point{
					X: c.X + float64(i)*h, Y: c.Y + float64(j)*h, Z: c.Z + float64(k)*h,
				})
			}
		}
	}
	return r
}

// coverRequest asks for the centre of every atom of one step, making the
// whole step (and, through the stencil footprints, nothing else) resident.
func coverRequest(step int) server.QueryRequest {
	space := geom.Space{GridSide: daemonGrid, AtomSide: daemonAtom}
	n := uint32(space.AtomsPerAxis())
	r := server.QueryRequest{Step: step, Kernel: "lag4"}
	for i := uint32(0); i < n; i++ {
		for j := uint32(0); j < n; j++ {
			for k := uint32(0); k < n; k++ {
				c := space.Center(geom.AtomCoord{I: i, J: j, K: k})
				r.Points = append(r.Points, server.Point{X: c.X, Y: c.Y, Z: c.Z})
			}
		}
	}
	return r
}

// plan is a workload's request bodies, encoded once so the timed phases
// send bytes and nothing else.
type plan struct {
	cover  [][]byte
	bodies [][]byte
	points []int // positions per body, for the cheap per-response check
}

// buildPlan derives the plan from the seed alone. scale < 1 shrinks the
// pool for the smoke test.
func buildPlan(s serveSpec, seed int64, scale float64) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	n := int(float64(s.pool) * scale)
	if n < 12 {
		n = 12
	}
	p := &plan{bodies: make([][]byte, n), points: make([]int, n)}
	for _, step := range s.coverSteps {
		b, err := json.Marshal(coverRequest(step))
		if err != nil {
			return nil, err
		}
		p.cover = append(p.cover, b)
	}
	for i := range p.bodies {
		req := s.gen(rng, i)
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		p.bodies[i] = b
		p.points[i] = len(req.Points)
	}
	return p, nil
}
