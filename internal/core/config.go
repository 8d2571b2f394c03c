package core

import (
	"fmt"

	"repro/internal/data"
)

// Config is one DLRM model specification following Table I of the paper.
// The bottom MLP is [DenseIn, BotHidden..., EmbDim] (its output must match
// the embedding dimension so the dot interaction is well formed); the top
// MLP is [InterDim(), TopHidden..., 1].
type Config struct {
	Name string

	MB       int // single-socket minibatch N
	GlobalMB int // GN for strong scaling
	LocalMB  int // LN for weak scaling

	Lookups int   // P, average look-ups per table
	Tables  int   // S
	EmbDim  int   // E
	Rows    []int // per-table row counts M (paper scale)

	DenseIn   int
	BotHidden []int
	TopHidden []int

	// ConcatInteraction selects the simple concat op instead of the default
	// self dot product (§II lists both).
	ConcatInteraction bool
}

// uniformRows returns n copies of m.
func uniformRows(n, m int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = m
	}
	return rows
}

// Small is the model problem from DLRM's release paper (Table I, column 1).
var Small = Config{
	Name:     "Small",
	MB:       2048,
	GlobalMB: 8192,
	LocalMB:  1024,
	Lookups:  50,
	Tables:   8,
	EmbDim:   64,
	Rows:     uniformRows(8, 1_000_000),
	DenseIn:  512,
	// 2 bottom layers: 512→512, 512→64.
	BotHidden: []int{512},
	// 4 top layers: 100→1024, 1024→1024, 1024→1024, 1024→1.
	TopHidden: []int{1024, 1024, 1024},
}

// Large is the Small problem scaled in every aspect for scale-out runs
// (Table I, column 2).
var Large = Config{
	Name:     "Large",
	MB:       0, // needs ≥4 sockets; no single-socket runs
	GlobalMB: 16384,
	LocalMB:  512,
	Lookups:  100,
	Tables:   64,
	EmbDim:   256,
	Rows:     uniformRows(64, 6_000_000),
	DenseIn:  2048,
	// 8 bottom layers: 7×(…→2048) then 2048→256.
	BotHidden: []int{2048, 2048, 2048, 2048, 2048, 2048, 2048},
	// 16 top layers: 15×(…→4096) then 4096→1.
	TopHidden: []int{4096, 4096, 4096, 4096, 4096, 4096, 4096, 4096,
		4096, 4096, 4096, 4096, 4096, 4096, 4096},
}

// MLPerf is the benchmark configuration proposed to MLPerf (Table I, column
// 3), sized for the Criteo Terabyte dataset.
var MLPerf = Config{
	Name:     "MLPerf",
	MB:       2048,
	GlobalMB: 16384,
	LocalMB:  2048,
	Lookups:  1,
	Tables:   26,
	EmbDim:   128,
	Rows:     data.CriteoTBRows,
	DenseIn:  13,
	// Bottom 512-256-128 (ends at E=128).
	BotHidden: []int{512, 256},
	// Top 512-512-256-1.
	TopHidden: []int{512, 512, 256},
}

// Configs lists the three Table I configurations.
var Configs = []Config{Small, Large, MLPerf}

// BotSizes returns the bottom MLP layer sizes including input and output.
func (c Config) BotSizes() []int {
	s := make([]int, 0, len(c.BotHidden)+2)
	s = append(append(s, c.DenseIn), c.BotHidden...)
	return append(s, c.EmbDim)
}

// InterDim returns the interaction output width: E + (S+1)·S/2 for the dot
// op, (S+1)·E for concat.
func (c Config) InterDim() int {
	if c.ConcatInteraction {
		return (c.Tables + 1) * c.EmbDim
	}
	return c.EmbDim + (c.Tables+1)*c.Tables/2
}

// TopSizes returns the top MLP layer sizes including input and output.
func (c Config) TopSizes() []int {
	s := make([]int, 0, len(c.TopHidden)+2)
	s = append(append(s, c.InterDim()), c.TopHidden...)
	return append(s, 1)
}

// TableBytes returns the memory needed by all embedding tables (FP32),
// Table II row 1.
func (c Config) TableBytes() float64 {
	var rows float64
	for _, m := range c.Rows {
		rows += float64(m)
	}
	return rows * float64(c.EmbDim) * 4
}

// MinSockets returns the minimum socket count to fit the tables given the
// per-socket memory capacity in bytes (Table II row 2; the paper's sockets
// hold 192 GB).
func (c Config) MinSockets(capBytes float64) int {
	need := int((c.TableBytes() + capBytes - 1) / capBytes)
	if need < 1 {
		need = 1
	}
	return need
}

// MaxRanks returns the largest usable rank count: pure model parallelism
// over tables caps scaling at S ranks (Table II row 3).
func (c Config) MaxRanks() int { return c.Tables }

// MLPParams returns the total parameter count of both MLPs: Σ_l f_i·f_o+f_o
// (Eq. 1). AllreduceBytes is 4× this, Table II row 4.
func (c Config) MLPParams() int {
	count := 0
	for _, sizes := range [][]int{c.BotSizes(), c.TopSizes()} {
		for i := 0; i+1 < len(sizes); i++ {
			count += sizes[i]*sizes[i+1] + sizes[i+1]
		}
	}
	return count
}

// AllreduceBytes returns the per-rank allreduce volume in bytes (Eq. 1 × 4).
func (c Config) AllreduceBytes() float64 { return 4 * float64(c.MLPParams()) }

// AlltoallBytes returns the total alltoall volume across all ranks for a
// global minibatch of n (Eq. 2 × 4 bytes): S·N·E.
func (c Config) AlltoallBytes(n int) float64 {
	return 4 * float64(c.Tables) * float64(n) * float64(c.EmbDim)
}

// Scaled returns a copy with every table's rows multiplied by f (min 1),
// used to instantiate paper-scale configs in test-sized memory. Timing
// models should keep using the unscaled Config.
func (c Config) Scaled(f float64) Config {
	c.Rows = data.ScaleRows(c.Rows, f)
	return c
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if len(c.Rows) != c.Tables {
		return fmt.Errorf("core: %s has %d row counts for %d tables", c.Name, len(c.Rows), c.Tables)
	}
	if c.BotSizes()[len(c.BotSizes())-1] != c.EmbDim {
		return fmt.Errorf("core: %s bottom MLP must end at E=%d", c.Name, c.EmbDim)
	}
	if c.TopSizes()[len(c.TopSizes())-1] != 1 {
		return fmt.Errorf("core: %s top MLP must end at 1", c.Name)
	}
	return nil
}
