package workload

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Scenario is a named workload shape: an arrival process plus a query-
// class mix, applied as an overlay on top of a size-bearing Config (the
// experiment scale keeps owning jobs/steps/space/cache knobs, so one
// scenario runs unchanged at bench scale and test scale). The zero
// overlay is the calibrated fig8 trace.
type Scenario struct {
	Name        string
	Description string

	// Arrivals overrides the inter-job arrival process; nil keeps the
	// config's process (fig8 when that is also nil).
	Arrivals Arrivals

	// Query-class mix; zero values keep the config's (all point queries,
	// with the DerivChain default of Generate).
	BoxFrac    float64
	DerivFrac  float64
	DerivChain int
}

// Apply lays the scenario over cfg and returns the result. Only the
// scenario's non-zero knobs are written, so scale-owned fields pass
// through untouched.
func (s Scenario) Apply(cfg Config) Config {
	if s.Arrivals != nil {
		cfg.Arrivals = s.Arrivals
	}
	if s.BoxFrac > 0 {
		cfg.BoxFrac = s.BoxFrac
	}
	if s.DerivFrac > 0 {
		cfg.DerivFrac = s.DerivFrac
	}
	if s.DerivChain > 0 {
		cfg.DerivChain = s.DerivChain
	}
	return cfg
}

// scenarios is the registry. Keep descriptions one-line: they render in
// `jawsbench -list-scenarios` and in the README table.
var scenarios = []Scenario{
	{
		Name:        "fig8",
		Description: "calibrated bursty on/off trace of the paper (§VI.A); the historical baseline, byte-identical to the pre-matrix generator",
	},
	{
		Name:        "poisson-box",
		Description: "memoryless Poisson arrivals with 30% box/sphere cutout queries (the web services' lattice access pattern)",
		Arrivals:    Poisson{},
		BoxFrac:     0.3,
	},
	{
		Name:        "deriv-chain",
		Description: "fig8 arrivals with 35% temporal-derivative queries chaining 3 adjacent steps (stresses gating edges and step buckets)",
		DerivFrac:   0.35,
		DerivChain:  3,
	},
	{
		Name:        "diurnal",
		Description: "Poisson arrivals under a sinusoidal rate envelope (peak/trough ratio 17/3 ≈ 5.7x over a 10s trace period)",
		Arrivals:    NewDiurnal(Poisson{}, 10*time.Second, 0.7),
	},
	{
		Name:        "flows",
		Description: "multi-step user flows: sessions of ~4 related jobs in quick succession separated by long idle gaps",
		Arrivals:    Flows{},
	},
}

// Scenarios lists the registry sorted by name, so listings and matrix
// loops are deterministic.
func Scenarios() []Scenario {
	out := append([]Scenario(nil), scenarios...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ScenarioNames returns the sorted registry names.
func ScenarioNames() []string {
	ss := Scenarios()
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.Name
	}
	return names
}

// LookupScenario finds a scenario by name.
func LookupScenario(name string) (Scenario, bool) {
	for _, s := range scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// MustScenario is LookupScenario for callers that already validated the
// name (the CLIs reject unknown names at flag-parse time).
func MustScenario(name string) Scenario {
	s, ok := LookupScenario(name)
	if !ok {
		panic(fmt.Sprintf("workload: unknown scenario %q (have: %s)", name, strings.Join(ScenarioNames(), ", ")))
	}
	return s
}
