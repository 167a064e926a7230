package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"jaws"
	"jaws/internal/geom"
)

// servedValuesSHA256 is the digest TestServedValuesCertificate computes. It
// changes only when a served value changes by one bit: the fill kernel, the
// trig, the interpolation kernels, the derivative assembly or the codec.
const servedValuesSHA256 = "32cfc601117066eab44476c89238f2367035e811bd71f06e6f97d59750963f46"

// TestServedValuesCertificate serves a seeded mix of requests through the
// handler of a real session and hashes every value served: all five kernels,
// 1 to 64 points, positions on and around atom seams and the domain's
// periodic edge, derivative chains, over a cache small enough that atoms are
// evicted and synthesized again. A change to how the atoms are filled (whole,
// by rows, by samples, in any order) must serve the same bits.
func TestServedValuesCertificate(t *testing.T) {
	const steps, grid, atom = 4, 128, 32
	sess, err := jaws.OpenSession(jaws.Config{
		Space:      jaws.Space{GridSide: grid, AtomSide: atom},
		Steps:      steps,
		Seed:       23,
		Scheduler:  jaws.SchedJAWS2,
		CacheAtoms: 12,
		Compute:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Backends: []Backend{sess}, Workers: 1, Steps: steps, MaxPoints: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown() })
	h := srv.Handler()

	rng := rand.New(rand.NewSource(35))
	atomLen := geom.DomainSide * atom / grid
	coord := func() float64 {
		switch rng.Intn(4) {
		case 0: // on an atom seam, or within a few ulps of one
			c := float64(rng.Intn(grid/atom+1)) * atomLen
			for range rng.Intn(4) {
				c = math.Nextafter(c, math.Inf(2*rng.Intn(2)-1))
			}
			return c
		case 1: // outside the periodic box
			return float64(rng.Float64()*4*geom.DomainSide) - 2*geom.DomainSide
		}
		return float64(rng.Float64() * geom.DomainSide)
	}
	names := []string{"none", "trilinear", "lag4", "lag6", "lag8"}
	digest := sha256.New()
	var word [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		digest.Write(word[:])
	}
	values := 0
	for i := range 128 {
		req := QueryRequest{Step: rng.Intn(steps), Kernel: names[rng.Intn(len(names))]}
		if rng.Intn(5) == 0 {
			req.DerivSteps = 2 + rng.Intn(steps-1)
			req.Step = rng.Intn(steps - req.DerivSteps + 1)
		}
		// One point, a few, or a crowd up to the limit.
		n := []int{1, 1 + rng.Intn(8), 1 + rng.Intn(64)}[rng.Intn(3)]
		for range n {
			req.Points = append(req.Points, Point{X: coord(), Y: coord(), Z: coord()})
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(string(body))))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
		var resp QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if len(resp.Values) != n {
			t.Fatalf("request %d: %d values for %d points", i, len(resp.Values), n)
		}
		for _, v := range resp.Values {
			put(v.Velocity[0])
			put(v.Velocity[1])
			put(v.Velocity[2])
			put(v.Pressure)
			values++
		}
	}
	if got := hex.EncodeToString(digest.Sum(nil)); got != servedValuesSHA256 {
		t.Fatalf("SHA-256 over the %d served values is %s, want %s: a served value changed", values, got, servedValuesSHA256)
	}
}
