package core

import (
	"math"
	"math/rand"

	"repro/internal/embedding"
	"repro/internal/interaction"
	"repro/internal/mlp"
)

// Model is one DLRM instance: bottom MLP over the dense features, S
// embedding tables over the sparse features, the dot interaction joining
// them, and the top MLP producing the click logit (Fig. 1).
type Model struct {
	Cfg Config
	BN  int // minibatch block size for the MLP tensors

	Bot, Top *mlp.MLP
	Tables   []*embedding.Table
	Inter    *interaction.Dot

	cache fwdCache
	ws    *Workspace
}

// NewModel builds a DLRM from cfg. Table t is seeded with seed+t so that a
// distributed trainer owning only a subset of tables initializes them
// bit-identically to a single-socket model — the replication the
// equivalence tests rely on. bn is the minibatch blocking; minibatches must
// be divisible by it.
func NewModel(cfg Config, bn int, seed int64) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Model{Cfg: cfg, BN: bn, Inter: interaction.NewDot(cfg.Tables, cfg.EmbDim)}
	rng := rand.New(rand.NewSource(seed))
	m.Bot = mlp.New(cfg.BotSizes(), bn, mlp.ReLU, mlp.ReLU, rng)
	m.Top = mlp.New(cfg.TopSizes(), bn, mlp.ReLU, mlp.None, rng)
	m.Tables = make([]*embedding.Table, cfg.Tables)
	for t := range m.Tables {
		m.Tables[t] = newTableSeeded(cfg, t, seed)
	}
	return m
}

// NewModelShard builds only the tables owned by rank r of ranks (tables are
// assigned round-robin: owner(t) = t mod ranks) plus full MLP replicas —
// the hybrid-parallel layout of §IV-B. Unowned table slots are nil.
func NewModelShard(cfg Config, bn int, seed int64, r, ranks int) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Model{Cfg: cfg, BN: bn, Inter: interaction.NewDot(cfg.Tables, cfg.EmbDim)}
	rng := rand.New(rand.NewSource(seed))
	m.Bot = mlp.New(cfg.BotSizes(), bn, mlp.ReLU, mlp.ReLU, rng)
	m.Top = mlp.New(cfg.TopSizes(), bn, mlp.ReLU, mlp.None, rng)
	m.Tables = make([]*embedding.Table, cfg.Tables)
	for t := range m.Tables {
		if TableOwner(t, ranks) == r {
			m.Tables[t] = newTableSeeded(cfg, t, seed)
		}
	}
	return m
}

func newTableSeeded(cfg Config, t int, seed int64) *embedding.Table {
	tRng := rand.New(rand.NewSource(seed + int64(t)*7919))
	scale := float32(1 / math.Sqrt(float64(cfg.EmbDim)))
	return embedding.NewTable(cfg.Rows[t], cfg.EmbDim, tRng, scale)
}

// TableOwner returns the rank owning table t under round-robin model
// parallelism.
func TableOwner(t, ranks int) int { return t % ranks }

// LocalTableIndex returns table t's position within its owning rank's
// LocalTables list — the inverse of the round-robin assignment, kept next
// to TableOwner so a sharding-policy change updates both together.
func LocalTableIndex(t, ranks int) int { return t / ranks }

// LocalTables returns the table indices owned by rank r.
func LocalTables(cfg Config, r, ranks int) []int {
	var out []int
	for t := 0; t < cfg.Tables; t++ {
		if TableOwner(t, ranks) == r {
			out = append(out, t)
		}
	}
	return out
}

// numLocalTables is len(LocalTables(cfg, r, ranks)) without building the list.
func numLocalTables(cfg Config, r, ranks int) int {
	return (cfg.Tables - r + ranks - 1) / ranks
}

// MaxLocalTables returns the largest per-rank table count, which sizes the
// (padded) alltoall blocks when S is not divisible by the rank count.
func MaxLocalTables(cfg Config, ranks int) int {
	return (cfg.Tables + ranks - 1) / ranks
}
