package core

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/par"
)

func TestCheckpointRoundTrip(t *testing.T) {
	t.Run("Tiny", func(t *testing.T) { checkpointRoundTrip(t, tinyConfig()) })
	// The top MLP's first layer is stored padded (383 → 384 columns); the
	// file holds the pad column like any other.
	t.Run("MLPerf-mini", func(t *testing.T) { checkpointRoundTrip(t, miniMLPerfConfig()) })
}

func checkpointRoundTrip(t *testing.T, cfg Config) {
	ds := tinyDataset(cfg)
	m := NewModel(cfg, 16, 1)
	tr := NewTrainer(m, par.NewPool(2), embedding.RaceFree, 0.5, FP32)
	for i := 0; i < 3; i++ {
		tr.Step(ds.Batch(i, cfg.MB))
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}

	restored := NewModel(cfg, 16, 999) // different init
	if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Weights must match bit for bit, and so must the predictions.
	checkModelsClose(t, "restored", restored, m, 0)
	mb := ds.Batch(100, cfg.MB)
	trR := NewTrainer(restored, par.NewPool(2), embedding.RaceFree, 0.5, FP32)
	if pa, pb := tr.Predict(mb), trR.Predict(mb); !slices.Equal(pa, pb) {
		t.Fatalf("predictions differ after restore: %v vs %v", pa, pb)
	}
}

func TestCheckpointShardComposition(t *testing.T) {
	// Shard checkpoints hold only owned tables; loading one into a full
	// model must update exactly those tables.
	cfg := tinyConfig()
	sh := NewModelShard(cfg, 16, 5, 1, 2)
	for _, tab := range sh.Tables {
		if tab != nil {
			tab.W[0] = 42
		}
	}
	var buf bytes.Buffer
	if err := sh.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := NewModel(cfg, 16, 5)
	if err := full.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for ti, tab := range full.Tables {
		if TableOwner(ti, 2) == 1 {
			if tab.W[0] != 42 {
				t.Fatalf("owned table %d not restored", ti)
			}
		} else if tab.W[0] == 42 {
			t.Fatalf("unowned table %d overwritten", ti)
		}
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	cfg := tinyConfig()
	m := NewModel(cfg, 16, 1)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	// Flip one bit deep inside the last table's payload (past every length
	// field), so only the CRC can catch it.
	raw[len(raw)-8] ^= 0x01
	err := NewModel(cfg, 16, 1).Load(bytes.NewReader(raw))
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("flipped payload bit: got %v, want ErrCheckpointCorrupt", err)
	}
}

func TestCheckpointConfigMismatchRejected(t *testing.T) {
	m := NewModel(tinyConfig(), 16, 1)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := tinyConfig()
	other.EmbDim = 32
	other.BotHidden = []int{32}
	wrong := NewModel(other, 16, 1)
	err := wrong.Load(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("config mismatch not rejected as ErrCheckpointMismatch: %v", err)
	}
}

func TestCheckpointWrongTableLengthRejected(t *testing.T) {
	// Same dimensions everywhere except one table's row count: the header
	// validates, the MLP tensors line up, and the table length check is what
	// must reject the stream.
	m := NewModel(tinyConfig(), 16, 1)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := tinyConfig()
	other.Rows = append([]int(nil), other.Rows...)
	other.Rows[0] = 123
	err := NewModel(other, 16, 1).Load(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrCheckpointMismatch) || !strings.Contains(err.Error(), "table 0") {
		t.Fatalf("wrong table length: got %v, want ErrCheckpointMismatch for table 0", err)
	}
}

func TestCheckpointTruncationDetected(t *testing.T) {
	cfg := tinyConfig()
	m := NewModel(cfg, 16, 1)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Cut inside the header, inside the payload, and just before the CRC:
	// every prefix must fail with the typed truncation error, never panic.
	for _, cut := range []int{0, 3, 12, len(raw) / 3, len(raw) - 2} {
		err := NewModel(cfg, 16, 1).Load(bytes.NewReader(raw[:cut]))
		if !errors.Is(err, ErrCheckpointTruncated) {
			t.Fatalf("cut at %d of %d: got %v, want ErrCheckpointTruncated", cut, len(raw), err)
		}
	}
}

func TestCheckpointBadMagicRejected(t *testing.T) {
	cfg := tinyConfig()
	m := NewModel(cfg, 16, 1)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	raw[0] ^= 0xFF
	err := NewModel(cfg, 16, 1).Load(bytes.NewReader(raw))
	if !errors.Is(err, ErrCheckpointMagic) {
		t.Fatalf("bad magic: got %v, want ErrCheckpointMagic", err)
	}
}

func TestCheckpointV1TrainerState(t *testing.T) {
	cfg := tinyConfig()
	m := NewModel(cfg, 16, 1)
	want := TrainerState{Iter: 42, Seed: 7, LR: 0.25}
	var buf bytes.Buffer
	if err := m.SaveWithState(&buf, want); err != nil {
		t.Fatal(err)
	}
	restored := NewModel(cfg, 16, 999)
	st, err := restored.LoadWithState(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || *st != want {
		t.Fatalf("trainer state %+v, want %+v", st, want)
	}
	if m.Tables[0].W[0] != restored.Tables[0].W[0] {
		t.Fatal("v1 checkpoint did not restore weights")
	}
	// Load (state-discarding) accepts v1 streams too.
	if err := NewModel(cfg, 16, 999).Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// And a v0 weights-only stream reports no state.
	var v0 bytes.Buffer
	if err := m.Save(&v0); err != nil {
		t.Fatal(err)
	}
	st, err = NewModel(cfg, 16, 999).LoadWithState(bytes.NewReader(v0.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatalf("v0 checkpoint returned state %+v, want nil", st)
	}
}

func TestCheckpointLoadsAcrossBlockings(t *testing.T) {
	// The header's BN word is informational: the packed MLP layout is
	// blocking-independent, and elastic restore loads an R-rank shard
	// (blocked for shard size N/R) into an R′-rank model (blocked for
	// N/R′). A blocking mismatch must therefore load cleanly.
	cfg := tinyConfig()
	m := NewModel(cfg, 16, 1)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := NewModel(cfg, 8, 999)
	if err := other.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("cross-blocking load rejected: %v", err)
	}
	checkModelsClose(t, "cross-blocking load", other, m, 0)
}

func TestCheckpointRejectsNonFinite(t *testing.T) {
	cfg := tinyConfig()
	m := NewModel(cfg, 16, 1)
	m.Tables[0].W[3] = float32(math.NaN())
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := NewModel(cfg, 16, 1).Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("NaN weights accepted")
	}
}

func TestCheckpointGarbageRejected(t *testing.T) {
	if err := NewModel(tinyConfig(), 16, 1).Load(bytes.NewReader([]byte("not a checkpoint at all........"))); err == nil {
		t.Fatal("garbage accepted")
	}
	_ = data.CriteoTBRows // keep import for symmetry with other tests
}

// TestTrainerCheckpointResume pins the single-socket resume contract: a run
// interrupted at a checkpoint boundary and resumed via RunOpts.Start trains
// the exact batches — and reaches the exact losses — of an uninterrupted
// run, because the counter-based data streams re-materialize any batch
// index.
func TestTrainerCheckpointResume(t *testing.T) {
	cfg := tinyConfig()
	ds := tinyDataset(cfg)
	newTrainer := func() *Trainer {
		return NewTrainer(NewModel(cfg, 16, 5), par.Default, embedding.RaceFree, 0.5, FP32)
	}

	// Uninterrupted 6-step reference.
	ref := newTrainer()
	var refLosses []float64
	if err := ref.Run(RunOpts{Dataset: ds, Iters: 6,
		Each: func(_ int, l float64) { refLosses = append(refLosses, l) }}); err != nil {
		t.Fatal(err)
	}

	// Checkpointed run, killed after 4 steps.
	ckpts := map[int][]byte{}
	first := newTrainer()
	err := first.Run(RunOpts{Dataset: ds, Iters: 4, CheckpointEvery: 2,
		Checkpoint: func(step int, m *Model) error {
			var buf bytes.Buffer
			if err := m.SaveWithState(&buf, TrainerState{Iter: int64(step), Seed: 42, LR: first.LR}); err != nil {
				return err
			}
			ckpts[step] = buf.Bytes()
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 2 || ckpts[2] == nil || ckpts[4] == nil {
		t.Fatalf("checkpoints at %v, want steps 2 and 4", ckpts)
	}

	// Resume from the step-4 checkpoint into a differently-seeded model.
	resumed := newTrainer()
	st, err := resumed.M.LoadWithState(bytes.NewReader(ckpts[4]))
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Iter != 4 {
		t.Fatalf("trainer state %+v, want Iter=4", st)
	}
	resumed.M.Bot.InvalidateTransposes()
	resumed.M.Top.InvalidateTransposes()
	var resLosses []float64
	if err := resumed.Run(RunOpts{Dataset: ds, Start: int(st.Iter), Iters: 2,
		Each: func(_ int, l float64) { resLosses = append(resLosses, l) }}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(resLosses, refLosses[4:]) {
		t.Fatalf("resumed losses %v, want bit-exact %v", resLosses, refLosses[4:])
	}

	// Misconfigurations: cadence without hook, hook without cadence.
	if err := newTrainer().Run(RunOpts{Dataset: ds, Iters: 1, CheckpointEvery: 2}); err == nil {
		t.Fatal("CheckpointEvery without Checkpoint accepted")
	}
	if err := newTrainer().Run(RunOpts{Dataset: ds, Iters: 1,
		Checkpoint: func(int, *Model) error { return nil }}); err == nil {
		t.Fatal("Checkpoint without CheckpointEvery accepted")
	}
}
