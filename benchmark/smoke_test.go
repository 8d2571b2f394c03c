package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestQuickSmoke runs every workload once at tiny shapes, end to end and
// traced: every metric must be reported under its name and unit, every
// output check must pass, and a trace must be written. It is a smoke test
// of the plumbing, not a measurement.
func TestQuickSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, det, err := runWorkload(runOpts{workload: w.name, seed: 3, seconds: 0.01, trace: traced, quick: true, outDir: out})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			for _, c := range det.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %s failed: %s", w.name, traced, c.Name, c.Detail)
				}
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", w.name, traced, m.name, got, ok, m.unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.name, got.Value)
				}
			}
			if traced {
				if _, err := os.Stat(out + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: no trace written: %v", w.name, err)
				}
			}
		}
	}
}

// TestManifest keeps the committed BENCHMARK.json equal to the registry and
// inside the driver's limits.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var got manifest
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := buildManifest()
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from the registry; regenerate it with: bash benchmark/run.sh -manifest > BENCHMARK.json")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range want.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range want.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the limits", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range want.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != nil {
			t.Errorf("per-layer metric %+v is outside the limits", m)
		}
		if len(perLayerHomes(m.Name)) == 0 {
			t.Errorf("per-layer metric %s is measured on no workload", m.Name)
		}
	}
	if want.RunSeconds < 1 || want.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", want.RunSeconds)
	}
}

func perLayerHomes(name string) []string {
	for _, m := range perLayer {
		if m.name == name {
			for _, h := range m.homes {
				if _, ok := workloadByName(h); !ok {
					return nil
				}
			}
			return m.homes
		}
	}
	return nil
}
