package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// selfTestAccesses is the trace length of the self-test's tiny inputs.
const selfTestAccesses = 20_000

// selfTest runs every workload once untraced and once traced on a tiny
// generated trace, with the golden and oracle checks on, and checks
// that BENCHMARK.json declares exactly the workloads and metrics this
// program reports. It returns the process exit code.
func selfTest(ctx context.Context, root, bin string) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "perfbench selftest: FAILED: "+format+"\n", args...)
		return 1
	}
	if err := checkDeclared(filepath.Join(root, "BENCHMARK.json")); err != nil {
		return fail("%v", err)
	}
	const seed = 1
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := bench(ctx, options{root: root, bin: bin, w: w, seed: seed, traced: traced,
				accesses: selfTestAccesses, setUps: 1, minRuns: 1})
			if err != nil {
				return fail("workload %s (traced %v, seed %d): %v", w.name, traced, seed, err)
			}
			if !res.out.Correct {
				return fail("workload %s (traced %v, seed %d): %d of %d runs failed, %d oracle mismatches",
					w.name, traced, seed, res.out.Failed, res.out.Attempted, res.record.OracleMismatches)
			}
			fmt.Fprintf(os.Stderr, "perfbench selftest: %s traced=%v ok (%d configurations)\n", w.name, traced, res.record.Configs)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench selftest: ok")
	return 0
}

// checkDeclared compares BENCHMARK.json with the workload and metric
// tables of this program.
func checkDeclared(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var declared, known []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		known = append(known, w.name)
	}
	if !slices.Equal(declared, known) {
		return fmt.Errorf("%s declares workloads %v, the program runs %v", path, declared, known)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s declares %d %s metrics, the program reports %d", path, len(got), kind, len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				return fmt.Errorf("%s %s metric %d is %s (%s), the program reports %s (%s)",
					path, kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
		return nil
	}
	if err := same("end_to_end", decl.EndToEnd, endToEnd); err != nil {
		return err
	}
	return same("per_layer", decl.PerLayer, perLayer)
}
