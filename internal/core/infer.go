package core

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/loss"
	"repro/internal/par"
	"repro/internal/tensor"
)

// Predictor is the forward-only inference path over a Model: embedding bag
// lookups, the dense forward (bottom MLP → interaction → top MLP), and the
// output sigmoid — with its own staging buffers, so a serving replica
// predicts without instantiating a Trainer (and without its optimizer and
// gradient state). The model's forward workspace and the staging rows
// follow the capacity-reuse discipline: after one pass at the largest
// batch, predictions for any batch size 1..B allocate nothing (steady
// state is pinned by the serving allocation tests).
//
// Like Trainer, a Predictor is single-threaded from the caller's view. Each
// serving replica has its own Predictor (staging rows, pool, table shard)
// over one of NewModelShards' models, which share one dense half; the
// dispatcher runs them one at a time.
type Predictor struct {
	M    *Model
	Pool *par.Pool

	embOut [][]float32 // per-table bag-output staging, N×E each
}

// NewPredictor binds a model and a worker pool; predictors over models that
// share MLPs (NewModelShards) must run one at a time. BN must divide every
// batch size the caller predicts (serving's BN=1 accepts any micro-batch).
func NewPredictor(m *Model, pool *par.Pool) *Predictor {
	return &Predictor{M: m, Pool: pool}
}

// EmbOut returns the per-table bag-output staging rows sized for n
// samples, growing capacity monotonically. The serving path fills these —
// local tables from the replica's own shard, remote tables from the shard
// owner's — and then calls PredictDense; single-socket callers let
// PredictInto do both halves.
func (p *Predictor) EmbOut(n int) [][]float32 {
	return ensureRows(&p.embOut, p.M.Cfg.Tables, n*p.M.Cfg.EmbDim)
}

// PredictInto computes the click probabilities for mb into out (length
// mb.N). Every table must be present on the model (full replica); shard
// holders stage bag outputs themselves and use PredictDense.
func (p *Predictor) PredictInto(mb *data.MiniBatch, out []float32) {
	rows := p.EmbOut(mb.N)
	for t, tab := range p.M.Tables {
		if tab == nil {
			panic(fmt.Sprintf("core: PredictInto on a shard model missing table %d; stage bag outputs and use PredictDense", t))
		}
		tab.Forward(p.Pool, mb.Sparse[t], rows[t])
	}
	p.PredictDense(mb.Dense, rows, out)
}

// PredictDense runs the dense half of the forward — bottom MLP over the
// dense features, interaction with the staged per-table bag outputs, top
// MLP, sigmoid — writing probabilities into out (length dense.Rows). This
// is the serving entry: embOut rows for remote tables were filled by their
// shard owners before dispatch.
func (p *Predictor) PredictDense(dense *tensor.Dense, embOut [][]float32, out []float32) {
	logits := p.M.ForwardDense(p.Pool, dense, embOut)
	loss.Sigmoid(logits, out[:len(logits)])
}
