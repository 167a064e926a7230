package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"jaws"
	"jaws/internal/geom"
)

// servedValuesSHA256 is the digest TestServedValuesCertificate computes. A
// response lists its values in request order, so no schedule moves it: it
// changes only when a served value changes by one bit — the fill kernel,
// the trig, the interpolation kernels, the derivative assembly or the codec.
const servedValuesSHA256 = "bcbf2f0d6df06759a485b98b6a6dbcbfdc289638e605fc6aaad27923498324da"

// certificateRequests draws the certificate's seeded mix of 128 requests:
// all five kernels, 1 to 64 points, positions on and around atom seams and
// the domain's periodic edge, derivative chains.
func certificateRequests() []QueryRequest {
	const steps, grid, atom = 4, 128, 32
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
	reqs := make([]QueryRequest, 128)
	for i := range reqs {
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
		reqs[i] = req
	}
	return reqs
}

// certificateConfig is the certificate's system: the requests' 128³ grid of
// 32³ atoms over 4 steps, behind a cache small enough that atoms are
// evicted and synthesized again.
func certificateConfig() jaws.Config {
	return jaws.Config{
		Space:      jaws.Space{GridSide: 128, AtomSide: 32},
		Steps:      4,
		Seed:       23,
		Scheduler:  jaws.SchedJAWS2,
		CacheAtoms: 12,
		Compute:    true,
	}
}

// serveCertificate serves reqs through the handler of a server with the
// given serving slots over a session of cfg, from clients concurrent
// clients (client c sends requests c, c+clients, …, one at a time), and
// returns each response's values by request. Every value must answer its
// request's point of the same index.
func serveCertificate(t *testing.T, cfg jaws.Config, workers, clients int, reqs []QueryRequest) [][]PointValue {
	t.Helper()
	sess, err := jaws.OpenSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Backends: []Backend{sess}, Workers: workers, Steps: cfg.Steps, MaxPoints: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	h := srv.Handler()
	out := make([][]PointValue, len(reqs))
	serve := func(i int) error {
		body, err := json.Marshal(reqs[i])
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
		var resp QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return fmt.Errorf("request %d: %v", i, err)
		}
		if len(resp.Values) != len(reqs[i].Points) {
			return fmt.Errorf("request %d: %d values for %d points", i, len(resp.Values), len(reqs[i].Points))
		}
		for j, v := range resp.Values {
			if v.Position != reqs[i].Points[j] {
				return fmt.Errorf("request %d: value %d answers %+v, not the request's point %+v", i, j, v.Position, reqs[i].Points[j])
			}
		}
		out[i] = resp.Values
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(reqs) && errs[c] == nil; i += clients {
				errs[c] = serve(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// digestValues returns the SHA-256 over every value of resps, in order,
// and how many there are.
func digestValues(resps [][]PointValue) (digest string, values int) {
	h := sha256.New()
	var word [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		h.Write(word[:])
	}
	for _, vals := range resps {
		for _, v := range vals {
			put(v.Velocity[0])
			put(v.Velocity[1])
			put(v.Velocity[2])
			put(v.Pressure)
		}
		values += len(vals)
	}
	return hex.EncodeToString(h.Sum(nil)), values
}

// digestDeclaredAt returns where servedValuesSHA256 is declared, as
// internal/server/values_test.go:LINE.
func digestDeclaredAt(t *testing.T) string {
	src, err := os.ReadFile("values_test.go")
	if err != nil {
		t.Fatal(err)
	}
	line := 1 + slices.IndexFunc(strings.Split(string(src), "\n"), func(l string) bool {
		return strings.HasPrefix(l, "const servedValuesSHA256 ")
	})
	return fmt.Sprintf("internal/server/values_test.go:%d", line)
}

// TestServedValuesCertificate serves the certificate's requests through the
// handler of a real session and hashes every value served, in request
// order. A change to how the atoms are filled (whole, by rows, by samples,
// in any order) must serve the same bits.
func TestServedValuesCertificate(t *testing.T) {
	got, values := digestValues(serveCertificate(t, certificateConfig(), 1, 1, certificateRequests()))
	if got != servedValuesSHA256 {
		t.Fatalf("SHA-256 over the %d served values is %s, want %s: a served value changed.\n"+
			"A deliberate change re-records, at %s:\n\tconst servedValuesSHA256 = %q",
			values, got, servedValuesSHA256, digestDeclaredAt(t), got)
	}
}

// TestServedValuesIndependentOfSchedule is the metamorphic half of the
// certificate: a served value depends on its request alone, so the
// certificate's requests must serve the certificate's digest under every
// scheduler × Table I policy × cache capacity of 1, 16 and 256 atoms (each
// forcing its own eviction and row-reuse history) × cost model off and on,
// under the tail stack on JAWS1 and JAWS2, and from 4 concurrent clients
// against 2 serving slots. -short (the race run) keeps the capacity of 16
// atoms only.
func TestServedValuesIndependentOfSchedule(t *testing.T) {
	reqs := certificateRequests()
	capacities := []int{1, 16, 256}
	if testing.Short() {
		capacities = []int{16}
	}
	type run struct {
		name             string
		cfg              jaws.Config
		workers, clients int
	}
	var runs []run
	for _, tail := range []string{"", "gate-aware;cross-step;adaptive-batch"} {
		for s := range jaws.SchedulerNames() {
			sc := jaws.Scheduler(s)
			if tail != "" && sc != jaws.SchedJAWS1 && sc != jaws.SchedJAWS2 {
				continue
			}
			for p := range jaws.CachePolicyNames() {
				for _, capacity := range capacities {
					for _, cost := range []jaws.CostModel{{}, jaws.DefaultEvaluationCost()} {
						cfg := certificateConfig()
						cfg.Scheduler, cfg.Policy, cfg.CacheAtoms, cfg.Cost, cfg.TailPolicy = sc, jaws.CachePolicy(p), capacity, cost, tail
						name := fmt.Sprintf("%v/%v/%d/cost=%t/tail=%t", sc, cfg.Policy, capacity, cost != jaws.CostModel{}, tail != "")
						runs = append(runs, run{name, cfg, 1, 1})
					}
				}
			}
		}
	}
	if want := 42 * len(capacities); len(runs) != want {
		t.Fatalf("%d configurations, want %d", len(runs), want)
	}
	cfg := certificateConfig()
	cfg.Scheduler, cfg.Policy, cfg.CacheAtoms, cfg.Cost = jaws.SchedJAWS2, jaws.PolicyURC, 16, jaws.DefaultEvaluationCost()
	runs = append(runs, run{"concurrent", cfg, 2, 4})
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			if got, _ := digestValues(serveCertificate(t, r.cfg, r.workers, r.clients, reqs)); got != servedValuesSHA256 {
				t.Errorf("served values digest %s, want the certificate's %s", got, servedValuesSHA256)
			}
		})
	}
}
