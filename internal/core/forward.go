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
	return m.BackwardDenseVisit(p, dz, nil, nil, nil)
}

// BackwardDenseVisit is the layer-stepped BackwardDense: identical math,
// but it fires onTopLayer(i)/onBotLayer(i) after each MLP layer's gradients
// are materialized (last layer first, the backward execution order) and
// onInter(dEmb) right after the interaction backward produces the embedding
// gradients. The bucketed distributed pipeline hangs its per-bucket
// allreduce issues and the backward redistribution launch on these hooks;
// all callbacks may be nil, making this exactly BackwardDense.
func (m *Model) BackwardDenseVisit(p *par.Pool, dz []float32,
	onTopLayer func(i int), onInter func(dEmb [][]float32), onBotLayer func(i int)) [][]float32 {
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
	dInterActs := m.Top.BackwardVisit(p, dLogit, true, onTopLayer)
	od := m.Inter.OutputDim()
	dInter := ensureDense(&ws.dInter, n, od)
	dInterActs.UnpackInto(dInter)

	e := m.Cfg.EmbDim
	dBot := ensureF32(&ws.dBot, n*e)
	dEmb := ws.DEmb(m.Cfg.Tables, n*e)
	m.Inter.Backward(p, dInter.Data, dBot, dEmb)
	if onInter != nil {
		onInter(dEmb)
	}

	ws.dBotD.Rows, ws.dBotD.Cols, ws.dBotD.Data = n, e, dBot
	dBotActs := tensor.EnsureActs(&ws.dBotActs, n, e, m.BN, mlp.BlockPick(e, 64))
	dBotActs.PackFrom(&ws.dBotD)
	m.Bot.BackwardVisit(p, dBotActs, false, onBotLayer)
	return dEmb
}
