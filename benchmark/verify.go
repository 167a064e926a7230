package main

import (
	"encoding/json"
	"fmt"
	"math"

	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/query"
	"jaws/internal/server"
	"jaws/internal/store"
)

// verifier recomputes served values in the harness, from the same store
// configuration jawsd opens, through store.Read and field.Interpolate
// alone: no cache, scheduler, engine or server code is involved.
type verifier struct {
	st    *store.Store
	space geom.Space
	atoms map[store.AtomID]*field.Atom
}

func newVerifier() (*verifier, error) {
	space := geom.Space{GridSide: daemonGrid, AtomSide: daemonAtom}
	st, err := store.Open(store.Config{Space: space, Steps: daemonSteps, Seed: daemonSeed})
	if err != nil {
		return nil, err
	}
	return &verifier{st: st, space: space, atoms: make(map[store.AtomID]*field.Atom)}, nil
}

func (v *verifier) atom(id store.AtomID) (*field.Atom, error) {
	if a, ok := v.atoms[id]; ok {
		return a, nil
	}
	a, _, err := v.st.Read(id)
	if err != nil {
		return nil, err
	}
	v.atoms[id] = a
	return a, nil
}

var wireKernels = map[string]field.Kernel{
	"": field.KernelLag4, "lag4": field.KernelLag4, "lag6": field.KernelLag6,
	"lag8": field.KernelLag8, "trilinear": field.KernelTrilinear, "none": field.KernelNone,
}

// want recomputes the value the service must return at p: the kernel at
// the request's step, or for a derivative request the forward-difference
// stencil over the chain's steps.
func (v *verifier) want(req *server.QueryRequest, p server.Point) ([field.Components]float64, error) {
	var out [field.Components]float64
	pos := geom.Position{X: p.X, Y: p.Y, Z: p.Z}
	ac := v.space.AtomOf(pos)
	kernel := wireKernels[req.Kernel]
	if req.DerivSteps < 2 {
		a, err := v.atom(store.AtomID{Step: req.Step, Code: ac.Code()})
		if err != nil {
			return out, err
		}
		return field.Interpolate(kernel, a, v.space, ac, pos), nil
	}
	w := query.DerivWeights(req.DerivSteps)
	for j := 0; j < req.DerivSteps; j++ {
		a, err := v.atom(store.AtomID{Step: req.Step + j, Code: ac.Code()})
		if err != nil {
			return out, err
		}
		val := field.Interpolate(kernel, a, v.space, ac, pos)
		for c := range out {
			out[c] += w[j] * val[c]
		}
	}
	for c := range out {
		out[c] /= query.StepDT
	}
	return out, nil
}

// relTol is the agreement demanded between a served and a recomputed
// value. Both sides run the same arithmetic, so in practice they are equal.
const relTol = 1e-9

func agree(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= relTol*math.Max(math.Abs(got), math.Abs(want))
}

// check recomputes every value of one response. The response must answer
// exactly the request's positions (in any order) with matching values.
func (v *verifier) check(reqBody, respBody []byte) error {
	var req server.QueryRequest
	if err := json.Unmarshal(reqBody, &req); err != nil {
		return fmt.Errorf("request body: %w", err)
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return fmt.Errorf("response body: %w", err)
	}
	if len(resp.Values) != len(req.Points) {
		return fmt.Errorf("%d values for %d points", len(resp.Values), len(req.Points))
	}
	asked := make(map[server.Point]int, len(req.Points))
	for _, p := range req.Points {
		asked[p]++
	}
	for _, pv := range resp.Values {
		if asked[pv.Position] == 0 {
			return fmt.Errorf("value at %+v, which the request did not ask for", pv.Position)
		}
		asked[pv.Position]--
		want, err := v.want(&req, pv.Position)
		if err != nil {
			return err
		}
		got := [field.Components]float64{pv.Velocity[0], pv.Velocity[1], pv.Velocity[2], pv.Pressure}
		for c := range want {
			if !agree(got[c], want[c]) {
				return fmt.Errorf("query %d at %+v component %d: served %v, recomputed %v",
					resp.QueryID, pv.Position, c, got[c], want[c])
			}
		}
	}
	return nil
}
