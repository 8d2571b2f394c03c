package core

import (
	"fmt"

	"repro/internal/mlp"
	"repro/internal/par"
	"repro/internal/tensor"
)

// fwdCache holds the minibatch size ForwardDense saves for BackwardDense
// (the tensors themselves live in the Workspace and the MLP layers).
type fwdCache struct {
	n int
}

// workspace returns the model's lazily-created buffer workspace.
func (m *Model) workspace() *Workspace {
	if m.ws == nil {
		m.ws = &Workspace{}
	}
	return m.ws
}

// ForwardDense runs the dense half of DLRM — bottom MLP, dot interaction,
// top MLP — for a minibatch whose embedding outputs have already been
// computed (locally or received over the fabric). dense is N×DenseIn;
// embOut[t] is N×E row-major for every table t. Returns the click logits
// (length N). Intermediates are retained for BackwardDense; the returned
// slice is a workspace buffer overwritten by the next call.
func (m *Model) ForwardDense(p *par.Pool, dense *tensor.Dense, embOut [][]float32) []float32 {
	n := dense.Rows
	if n%m.BN != 0 {
		panic(fmt.Sprintf("core: minibatch %d not divisible by block %d", n, m.BN))
	}
	if len(embOut) != m.Cfg.Tables {
		panic(fmt.Sprintf("core: %d embedding outputs for %d tables", len(embOut), m.Cfg.Tables))
	}
	ws := m.workspace()

	botActs := m.Bot.Forward(p, m.Bot.PackInput(&ws.botIn, dense))
	botRows := ensureDense(&ws.botRows, n, botActs.C) // N×E
	botActs.UnpackInto(botRows)

	od := m.Inter.OutputDim()
	z := ensureF32(&ws.z, n*od)
	m.Inter.Forward(p, n, botRows.Data, embOut, z)

	ws.zD.Rows, ws.zD.Cols, ws.zD.Data = n, od, z
	logitsActs := m.Top.Forward(p, m.Top.PackInput(&ws.topIn, &ws.zD))
	logitsD := ensureDense(&ws.logitsD, n, logitsActs.C)
	logitsActs.UnpackInto(logitsD)

	m.cache = fwdCache{n: n}
	return logitsD.Data // N×1 → flat length N
}

// BackwardDense backpropagates from the loss gradient dz (dL/dlogit, length
// N): through the top MLP, the interaction, and the bottom MLP, filling
// every layer's weight gradients, and returns the gradients of each table's
// bag outputs (dEmb[t], N×E row-major) for the sparse backward/update. The
// returned buffers are workspace storage overwritten by the next call.
func (m *Model) BackwardDense(p *par.Pool, dz []float32) [][]float32 {
	dInter := m.Top.Backward(p, m.packLossGrad(dz), true)
	dEmb := m.workspace().DEmb(m.Cfg.Tables, m.cache.n*m.Cfg.EmbDim)
	m.Bot.Backward(p, m.backwardInteraction(p, dInter, dEmb), false)
	return dEmb
}

// packLossGrad packs dz as the top MLP's output gradient — the head of the
// backward pass. The distributed executor steps the pass layer by layer from
// here (mlp.BackwardLayer, then backwardInteraction between the two MLPs) so
// each gradient bucket's allreduce can be issued the moment its layers are
// done; BackwardDense is the same pass in one call.
func (m *Model) packLossGrad(dz []float32) *tensor.Acts {
	n := m.cache.n
	if n == 0 {
		panic("core: BackwardDense before ForwardDense")
	}
	if len(dz) != n {
		panic(fmt.Sprintf("core: dz len %d want %d", len(dz), n))
	}
	ws := m.workspace()
	ws.dzD.Rows, ws.dzD.Cols, ws.dzD.Data = n, 1, dz
	dLogit := tensor.EnsureActs(&ws.dLogit, n, 1, m.BN, 1)
	dLogit.PackFrom(&ws.dzD)
	return dLogit
}

// backwardInteraction takes the top MLP's input gradient through the
// interaction, writes the gradients of each table's bag outputs into the
// caller's dEmb (per table, N×E) and returns the bottom MLP's packed output
// gradient.
func (m *Model) backwardInteraction(p *par.Pool, dInterActs *tensor.Acts, dEmb [][]float32) *tensor.Acts {
	n := m.cache.n
	ws := m.workspace()
	dInter := ensureDense(&ws.dInter, n, m.Inter.OutputDim())
	dInterActs.UnpackInto(dInter)

	e := m.Cfg.EmbDim
	dBot := ensureF32(&ws.dBot, n*e)
	m.Inter.Backward(p, dInter.Data, dBot, dEmb)

	ws.dBotD.Rows, ws.dBotD.Cols, ws.dBotD.Data = n, e, dBot
	dBotActs := tensor.EnsureActs(&ws.dBotActs, n, e, m.BN, mlp.BlockPick(e, 64))
	dBotActs.PackFrom(&ws.dBotD)
	return dBotActs
}
