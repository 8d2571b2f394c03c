// Tests for the replica set a Workspaces keeps across runs: reuse never
// changes an answer, the key is neither too loose nor too tight, a warm run
// builds nothing, concurrent use is refused, and results do not depend on
// the core count.
package serve

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mlp"
	"repro/internal/testenv"
)

// sameResult fails unless got and want served the same requests with the
// same predictions and latencies, bit for bit.
func sameResult(t *testing.T, step string, got, want *Result) {
	t.Helper()
	if got.Served != want.Served || got.Shed != want.Shed || got.Batches != want.Batches {
		t.Fatalf("%s: served/shed/batches %d/%d/%d, fresh workspace %d/%d/%d",
			step, got.Served, got.Shed, got.Batches, want.Served, want.Shed, want.Batches)
	}
	if len(got.Preds) != len(want.Preds) || len(got.Latencies) != len(want.Latencies) {
		t.Fatalf("%s: %d preds / %d latencies, fresh workspace %d / %d",
			step, len(got.Preds), len(got.Latencies), len(want.Preds), len(want.Latencies))
	}
	for k := range want.Preds {
		if math.Float32bits(got.Preds[k]) != math.Float32bits(want.Preds[k]) {
			t.Fatalf("%s: request %d predicted %v, fresh workspace %v", step, k, got.Preds[k], want.Preds[k])
		}
	}
	for i := range want.Latencies {
		if got.Latencies[i] != want.Latencies[i] {
			t.Fatalf("%s: latency %d is %v, fresh workspace %v", step, i, got.Latencies[i], want.Latencies[i])
		}
	}
}

// TestServeWorkspaceReuse runs a sequence of configs on one Workspaces and
// holds every result to the same config on a fresh one. Each step also
// states whether the cached replica set must survive it, so a key that is
// too loose fails on the answers and one that is too tight fails on reuse.
func TestServeWorkspaceReuse(t *testing.T) {
	pools := cluster.NewPools()
	defer pools.Close()
	// A model small enough that the 18 builds below stay cheap. Scaled
	// returns fresh Rows, mutated in place below.
	run := core.Small.Scaled(1.0 / 4096)
	run.BotHidden, run.TopHidden = []int{64}, []int{64, 64}
	base := functionalConfig(8)
	base.RunCfg, base.Dataset, base.Pools = &run, serveDataset(run), pools
	other := run.Scaled(0.5)

	steps := []struct {
		name  string
		mut   func(*Config)
		reuse bool
	}{
		{"first", func(*Config) {}, false},
		{"timing only", func(c *Config) { c.RunCfg, c.Dataset, c.Pools = nil, nil, nil }, true},
		{"same again", func(*Config) {}, true},
		{"other seed", func(c *Config) { c.Seed++ }, false},
		{"one replica", func(c *Config) { c.Replicas = 1 }, false},
		{"three replicas", func(*Config) {}, false},
		{"other RunCfg", func(c *Config) { c.RunCfg, c.Dataset = &other, serveDataset(other) }, false},
		{"first RunCfg", func(*Config) {}, false},
		{"Rows[0] mutated in place", func(c *Config) {
			run.Rows[0] *= 2
			c.Dataset = serveDataset(run)
		}, false},
		{"nil pools", func(c *Config) { c.Pools = nil }, true},
		{"shared pools", func(*Config) {}, true},
	}
	ws := NewWorkspaces()
	for _, st := range steps {
		c := base
		st.mut(&c)
		before := slices.Clone(ws.preds)
		c.Workspaces = ws
		got := mustRun(t, c)
		if reused := len(before) > 0 && slices.Equal(before, ws.preds); reused != st.reuse {
			t.Fatalf("%s: replica set reused = %v, want %v", st.name, reused, st.reuse)
		}
		c.Workspaces = NewWorkspaces()
		sameResult(t, st.name, got, mustRun(t, c))
	}
	if m := ws.preds[0].M.Tables[0].M; m != run.Rows[0] {
		t.Fatalf("table 0 has %d rows after RunCfg.Rows[0] became %d", m, run.Rows[0])
	}
}

// TestServeReplicasShareDense pins the replica set's layout through key
// changes on one workspace: every predictor runs over one dense half — the
// same bottom / top MLP pair and interaction — replica r holds exactly the
// tables it owns, and a key change (seed, replica count, RunCfg) builds one
// new dense half for the whole set while a same-key run keeps it.
func TestServeReplicasShareDense(t *testing.T) {
	pools := cluster.NewPools()
	defer pools.Close()
	run := core.Small.Scaled(1.0 / 4096)
	run.BotHidden, run.TopHidden = []int{64}, []int{64, 64}
	other := run.Scaled(0.5)
	base := functionalConfig(8)
	base.Topo = fabric.NewPrunedFatTree(8, 12.5e9)
	base.RunCfg, base.Dataset, base.Pools, base.Workspaces = &run, serveDataset(run), pools, NewWorkspaces()
	steps := []struct {
		name    string
		mut     func(*Config)
		rebuild bool
	}{
		{"one replica", func(c *Config) { c.Replicas = 1 }, true},
		{"three replicas", func(c *Config) { c.Replicas = 3 }, true},
		{"same again", func(c *Config) { c.Replicas = 3 }, false},
		{"eight replicas", func(c *Config) { c.Replicas = 8 }, true},
		{"other seed", func(c *Config) { c.Replicas, c.Seed = 8, c.Seed+1 }, true},
		{"other RunCfg", func(c *Config) { c.Replicas, c.RunCfg, c.Dataset = 8, &other, serveDataset(other) }, true},
	}
	var bot, top *mlp.MLP
	for _, st := range steps {
		c := base
		st.mut(&c)
		mustRun(t, c)
		preds := c.Workspaces.preds
		if len(preds) != c.Replicas {
			t.Fatalf("%s: %d predictors for %d replicas", st.name, len(preds), c.Replicas)
		}
		if rebuilt := preds[0].M.Bot != bot || preds[0].M.Top != top; rebuilt != st.rebuild {
			t.Fatalf("%s: dense half rebuilt = %v, want %v", st.name, rebuilt, st.rebuild)
		}
		bot, top = preds[0].M.Bot, preds[0].M.Top
		for r, p := range preds {
			if p.M.Bot != bot || p.M.Top != top || p.M.Inter != preds[0].M.Inter {
				t.Fatalf("%s: replica %d has its own dense half", st.name, r)
			}
			for ti, tab := range p.M.Tables {
				if owns := core.TableOwner(ti, c.Replicas) == r; (tab != nil) != owns {
					t.Fatalf("%s: replica %d holds table %d = %v, owns it = %v", st.name, r, ti, tab != nil, owns)
				}
			}
		}
	}
}

// TestReplicaKeyCoversConfig changes each field of core.Config in turn:
// sameConfig must notice, and cloneConfig must share no slice with its
// source. A new Config field fails here until both helpers handle it.
func TestReplicaKeyCoversConfig(t *testing.T) {
	a := core.MLPerf
	typ := reflect.TypeOf(a)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		b := cloneConfig(&a)
		if !sameConfig(&a, &b) {
			t.Fatal("a config differs from its clone")
		}
		v := reflect.ValueOf(&b).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.String:
			v.SetString(v.String() + "'")
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Slice:
			if v.Len() == 0 || v.Index(0).Kind() != reflect.Int {
				t.Fatalf("field %s: want a non-empty []int, extend the test", f.Name)
			}
			orig := reflect.ValueOf(a).Field(i).Index(0).Int()
			v.Index(0).SetInt(orig + 1)
			if reflect.ValueOf(a).Field(i).Index(0).Int() != orig {
				t.Fatalf("field %s: cloneConfig shares the slice", f.Name)
			}
		default:
			t.Fatalf("field %s of kind %v: extend sameConfig, cloneConfig and this test", f.Name, f.Type.Kind())
		}
		if sameConfig(&a, &b) {
			t.Errorf("field %s changed, sameConfig still reports equal", f.Name)
		}
	}
}

// TestServeWarmRunBuildsNothing pins the point of the cache: once the
// replicas exist, a functional run allocates kilobytes, not the ≈ 100 MB of
// weights a rebuild draws.
func TestServeWarmRunBuildsNothing(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	c := functionalConfig(8)
	c.Workspaces = NewWorkspaces()
	c.Pools = cluster.NewPools()
	defer c.Pools.Close()
	mustRun(t, c)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustRun(t, c)
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("warm functional run allocated %d bytes, want < 1 MiB", d)
	}
}

// TestServeWorkspacesInUse pins the concurrency rule: a Run on a Workspaces
// another Run holds is refused with a diagnosis, and leaves the holder's
// claim alone.
func TestServeWorkspacesInUse(t *testing.T) {
	c := functionalConfig(8)
	c.Workspaces = NewWorkspaces()
	c.Workspaces.inUse.Store(true) // as if a Run were in flight elsewhere
	if _, err := Run(c); !errors.Is(err, errInUse) {
		t.Fatalf("Run on a busy workspace: error %v, want %v", err, errInUse)
	}
	if !c.Workspaces.inUse.Load() {
		t.Fatal("refused Run released the other Run's claim")
	}
	c.Workspaces.inUse.Store(false)
	want := mustRun(t, c)
	if c.Workspaces.inUse.Load() {
		t.Fatal("Run did not release the workspace")
	}

	// Really concurrent: every Run either is refused or answers exactly.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Run(c)
			if errors.Is(err, errInUse) {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			for k := range want.Preds {
				if math.Float32bits(res.Preds[k]) != math.Float32bits(want.Preds[k]) {
					t.Errorf("concurrent run: request %d predicted %v, want %v", k, res.Preds[k], want.Preds[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestServeFunctionalAnyProcs hashes a functional run's predictions and
// latencies on a warm and a fresh workspace at 1, 2 and 8 procs: one value.
func TestServeFunctionalAnyProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	c := functionalConfig(8)
	c.Pools = cluster.NewPools()
	defer c.Pools.Close()
	warm := NewWorkspaces()
	var want uint64
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, ws := range []*Workspaces{warm, NewWorkspaces()} {
			c.Workspaces = ws
			res := mustRun(t, c)
			h := fnv.New64a()
			binary.Write(h, binary.LittleEndian, res.Preds)
			binary.Write(h, binary.LittleEndian, res.Latencies)
			if want == 0 {
				want = h.Sum64()
			} else if got := h.Sum64(); got != want {
				t.Fatalf("GOMAXPROCS %d, warm %v: hash %x, want %x", procs, ws == warm, got, want)
			}
		}
	}
}
