// Command mutants runs the mutant register, register.json beside it: bugs
// the tests are known to catch, each an exact piece of text in a file and
// its replacement. An entry's -run pattern must pass in its package as the
// tree stands and fail once go test -overlay swaps the file for the
// mutated copy; no file in the tree is touched. An entry whose old text
// does not occur exactly once is stale and fails the run first. An
// equivalent mutant is listed with the reason it changes nothing and is
// not run. Run it from the module root (make check-mutants).
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"time"
)

// entry is one mutant: Old in File becomes New, and the -run pattern Run
// must then fail in package Pkg — unless Equivalent says why the mutant
// changes nothing. From names the change that found it.
type entry struct {
	ID, File, Old, New, Pkg, Run, From, Equivalent string
	src                                            string // File's text, as load read it
}

// load reads the register of the module at root and returns its entries
// and a problem for each entry that is stale or incomplete.
func load(root string) ([]entry, []string) {
	var entries []entry
	data, err := os.ReadFile(filepath.Join(root, "scripts", "mutants", "register.json"))
	if err == nil {
		err = json.Unmarshal(data, &entries)
	}
	if err != nil {
		return nil, []string{err.Error()}
	}
	var bad []string
	seen := make(map[string]bool)
	for i := range entries {
		e := &entries[i]
		src, err := os.ReadFile(filepath.Join(root, e.File))
		e.src = string(src)
		switch n := strings.Count(e.src, e.Old); {
		case err != nil:
			bad = append(bad, fmt.Sprintf("%s: %v", e.ID, err))
		case n != 1 || e.Old == "":
			bad = append(bad, fmt.Sprintf("%s is stale: its old text occurs %d times in %s, want exactly once", e.ID, n, e.File))
		case e.ID == "" || seen[e.ID] || e.New == e.Old || e.From == "" || (e.Equivalent == "") == (e.Pkg == "" || e.Run == ""):
			bad = append(bad, fmt.Sprintf("entry %q: want a unique id, a replacement that differs, where it comes from, and a package and pattern or else the reason it is equivalent", e.ID))
		}
		seen[e.ID] = true
	}
	return entries, bad
}

// goTest runs pattern in pkg with the extra arguments and returns whether
// it passed and its output.
func goTest(pkg, pattern string, extra ...string) (bool, string) {
	args := append([]string{"test", "-count=1", "-run", pattern}, extra...)
	out, err := exec.Command("go", append(args, pkg)...).CombinedOutput()
	return err == nil, string(out)
}

// writeOverlay writes e's mutant of its file into dir, and the -overlay
// file that swaps it in (go resolves its relative path from the module
// root, where go test runs), and returns the latter's path.
func writeOverlay(dir string, i int, e entry) (string, error) {
	mutant, overlay := filepath.Join(dir, fmt.Sprint(i, ".go")), filepath.Join(dir, fmt.Sprint(i, ".json"))
	spec, err := json.Marshal(map[string]map[string]string{"Replace": {e.File: mutant}})
	if err == nil {
		err = os.WriteFile(mutant, []byte(strings.Replace(e.src, e.Old, e.New, 1)), 0o644)
	}
	if err == nil {
		err = os.WriteFile(overlay, spec, 0o644)
	}
	return overlay, err
}

var failedTest, shrunkTo = regexp.MustCompile(`--- FAIL: (\S+)`), regexp.MustCompile(`shrunk to \d+ bytes`)

func main() {
	start := time.Now()
	entries, bad := load(".")
	if len(bad) > 0 {
		fmt.Fprintln(os.Stderr, "check-mutants:\n\t"+strings.Join(bad, "\n\t"))
		os.Exit(1)
	}
	tmp, err := os.MkdirTemp("", "mutants")
	if err != nil {
		fmt.Fprintln(os.Stderr, "check-mutants:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(tmp)

	// Without a mutant every pattern passes: one run per package, over the
	// alternation of its entries' patterns.
	patterns := make(map[string][]string)
	for _, e := range entries {
		if e.Equivalent == "" {
			patterns[e.Pkg] = append(patterns[e.Pkg], e.Run)
		}
	}
	failed := 0
	for pkg, ps := range patterns {
		if ok, out := goTest(pkg, strings.Join(ps, "|")); !ok {
			fmt.Printf("FAIL  %s fails without a mutant:\n%s\n", pkg, out)
			failed++
		}
	}
	for i, e := range entries {
		if e.Equivalent != "" {
			fmt.Printf("equal %-3s %s: %s\n", e.ID, e.File, e.Equivalent)
			continue
		}
		overlay, err := writeOverlay(tmp, i, e)
		if err != nil {
			fmt.Printf("FAIL  %-3s cannot be written: %v\n", e.ID, err)
			failed++
			continue
		}
		t0 := time.Now()
		if ok, out := goTest(e.Pkg, e.Run, "-overlay", overlay); !ok && failedTest.MatchString(out) {
			fmt.Printf("kill  %-3s %s in %.1fs %s\n", e.ID, failedTest.FindStringSubmatch(out)[1], time.Since(t0).Seconds(), shrunkTo.FindString(out))
		} else {
			fmt.Printf("FAIL  %-3s is not killed by %s -run '%s' (%s):\n%s\n", e.ID, e.Pkg, e.Run, e.From, out)
			failed++
		}
	}
	fmt.Printf("check-mutants: %d entries, %d failed, %.0fs\n", len(entries), failed, time.Since(start).Seconds())
	if failed > 0 {
		os.Exit(1)
	}
}
