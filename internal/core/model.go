package core

import (
	"math"
	"math/rand"

	"repro/internal/embedding"
	"repro/internal/interaction"
	"repro/internal/mlp"
	"repro/internal/par"
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

// NewModel builds a DLRM from cfg: NewModelShard with one rank owning every
// table. bn is the minibatch blocking; minibatches must be divisible by it.
func NewModel(cfg Config, bn int, seed int64) *Model {
	return NewModelShard(cfg, bn, seed, 0, 1)
}

// NewModelShard builds only the tables owned by rank r of ranks (tables are
// assigned round-robin: owner(t) = t mod ranks) plus full MLP replicas —
// the hybrid-parallel layout of §IV-B. Unowned table slots are nil.
//
// The MLPs draw from one stream seeded with seed; table t draws from its own
// stream seeded with seed + 7919·t, so a rank owning a subset of the tables
// initializes them bit-identically to a single-socket model — the
// replication the equivalence tests rely on — and the tables are built in
// parallel on par.Default with the same result at any worker count.
func NewModelShard(cfg Config, bn int, seed int64, r, ranks int) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Model{Cfg: cfg, BN: bn, Inter: interaction.NewDot(cfg.Tables, cfg.EmbDim)}
	rng := rand.New(rand.NewSource(seed))
	m.Bot = mlp.New(cfg.BotSizes(), bn, mlp.ReLU, mlp.ReLU, rng)
	m.Top = mlp.New(cfg.TopSizes(), bn, mlp.ReLU, mlp.None, rng)
	m.Tables = make([]*embedding.Table, cfg.Tables)
	scale := float32(1 / math.Sqrt(float64(cfg.EmbDim)))
	par.Default.ForN(cfg.Tables, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			if TableOwner(t, ranks) == r {
				m.Tables[t] = embedding.NewTableSeeded(cfg.Rows[t], cfg.EmbDim, seed+int64(t)*7919, scale)
			}
		}
	})
	return m
}

// NewModelShards builds the model a set of serving replicas holds: one
// dense half — the bottom and top MLPs and the interaction — shared by every
// shard, under which shard r holds the tables rank r owns (nil elsewhere).
// Every weight is the one NewModelShard(cfg, bn, seed, r, ranks) draws; at
// ranks = 1 the one shard is NewModel's model. The shards share the MLPs'
// weights and activation buffers, so they may run only forward and only one
// at a time: serving, which never writes a weight. Training's ranks update
// their own MLP replicas and keep NewModelShard.
func NewModelShards(cfg Config, bn int, seed int64, ranks int) []*Model {
	full := NewModel(cfg, bn, seed)
	shards := make([]*Model, ranks)
	for r := range shards {
		shards[r] = &Model{Cfg: cfg, BN: bn, Bot: full.Bot, Top: full.Top, Inter: full.Inter,
			Tables: make([]*embedding.Table, cfg.Tables)}
	}
	for t, tab := range full.Tables {
		shards[TableOwner(t, ranks)].Tables[t] = tab
	}
	return shards
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

// NumLocalTables is len(LocalTables(cfg, r, ranks)) without building the list.
func NumLocalTables(cfg Config, r, ranks int) int {
	return (cfg.Tables - r + ranks - 1) / ranks
}

// MaxLocalTables returns the largest per-rank table count, which sizes the
// (padded) alltoall blocks when S is not divisible by the rank count.
func MaxLocalTables(cfg Config, ranks int) int {
	return (cfg.Tables + ranks - 1) / ranks
}
