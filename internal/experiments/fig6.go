package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/perfmodel"
)

// Fig6Opts sizes the MLP communication/computation overlap experiment of
// Figs. 2 and 6: a standalone multi-layer MLP trained data-parallel on a
// cluster, with the SGD's reduce-scatter and all-gather overlapped with the
// backward GEMMs, and 4 cores per socket dedicated to communication.
type Fig6Opts struct {
	Layers int
	N      int // global minibatch (paper: 1008)
	CK     int // feature width C=K (paper: 1024)
	Ranks  int // paper: 8 CLX nodes, 1 MPI process each
}

// DefaultFig6Opts returns the paper's configuration.
func DefaultFig6Opts() Fig6Opts {
	return Fig6Opts{Layers: 5, N: 1008, CK: 1024, Ranks: 8}
}

// RunFig6 simulates the Fig. 2 schedule and reports, for the backward and
// update passes, the GEMM/compute time versus the communication time and
// how much of it is exposed — the paper's point being that the allgather
// and reduce-scatter hide completely behind the GEMMs.
func RunFig6(o Fig6Opts) *Table {
	topo := opaTree(o.Ranks)
	sock := perfmodel.CLX8280
	cfg := cluster.Config{
		Ranks:     o.Ranks,
		Topo:      topo,
		Socket:    sock,
		Backend:   cluster.CCLBackend, // 4 dedicated EPs per socket (§IV-A)
		CommCores: 4,
	}
	layerBytes := 4 * float64(o.CK) * float64(o.CK)
	localN := o.N / o.Ranks

	var bwdGemm, bwdBusy, bwdExposed, updCompute, updBusy, updExposed float64
	stats := cluster.Run(cfg, func(r *cluster.Rank) {
		cm := comm.New(r, topo)
		cores := r.ComputeCores()
		gemmT := sock.GemmTimeN(2*float64(localN)*float64(o.CK)*float64(o.CK),
			4*float64(o.CK)*(float64(o.CK)+2*float64(localN)), cores, localN)

		// Backward pass (Fig. 2 left): per layer, BWD-by-data and
		// BWD-by-weights GEMMs; the reduce-scatter of this layer's weight
		// gradients is enqueued right after they exist, and the all-gather
		// of the *previous* (upper) layer's reduced gradients rides along.
		rsHandles := make([]cluster.Handle, o.Layers)
		bwdStart := r.Now()
		for l := o.Layers - 1; l >= 0; l-- {
			r.Compute(gemmT) // backward by data
			r.Compute(gemmT) // backward by weights
			buf := make([]float32, 4)
			h := cm.AllreduceCost(fmt.Sprintf("reduce-scatter"), buf, false, layerBytes/2)
			rsHandles[l] = h
		}
		bwdEnd := r.Now()

		// Update pass (Fig. 2 right): per layer, wait for the
		// reduce-scatter, apply the SGD on the local shard, and all-gather
		// the updated weights, overlapped with the next layer's SGD.
		agHandles := make([]cluster.Handle, o.Layers)
		sgdT := sock.StreamTime(3*layerBytes/float64(o.Ranks), cores)
		// Process layers in the same top-down order the backward pass
		// enqueued their reduce-scatters, so completions arrive in order.
		for l := o.Layers - 1; l >= 0; l-- {
			r.Wait(rsHandles[l])
			r.Compute(sgdT)
			buf := make([]float32, 4)
			agHandles[l] = cm.AllreduceCost("allgather", buf, false, layerBytes/2)
		}
		for _, h := range agHandles {
			r.Wait(h)
		}
		updEnd := r.Now()
		_ = bwdStart
		_ = bwdEnd
		_ = updEnd
	})

	ranks := float64(o.Ranks)
	for _, s := range stats {
		bwdGemm += 0 // filled from stats below
		_ = s
	}
	// Aggregate: compute split is deterministic — recompute from stats.
	for _, s := range stats {
		updBusy += s.CommBusy["allgather"] / ranks
		bwdBusy += s.CommBusy["reduce-scatter"] / ranks
		updExposed += s.Wait["allgather"] / ranks
		bwdExposed += s.Wait["reduce-scatter"] / ranks
	}
	// Compute time split: the backward pass is 2 GEMMs per layer; the update
	// pass is the SGD sweeps.
	sockCores := sock.Cores - 4
	gemmT := sock.GemmTimeN(2*float64(localN)*float64(o.CK)*float64(o.CK),
		4*float64(o.CK)*(float64(o.CK)+2*float64(localN)), sockCores, localN)
	bwdGemm = 2 * gemmT * float64(o.Layers)
	updCompute = sock.StreamTime(3*layerBytes/float64(o.Ranks), sockCores) * float64(o.Layers)

	t := &Table{
		Title:   "Fig. 2/6: overlapping MLP GEMMs with SGD reduce-scatter/all-gather",
		Headers: []string{"pass", "compute (ms)", "comm busy (ms)", "comm exposed (ms)"},
	}
	t.AddRow("BWD pass", ms(bwdGemm), ms(bwdBusy), ms(bwdExposed))
	t.AddRow("UPD pass", ms(updCompute), ms(updBusy), ms(updExposed))
	t.AddNote("config: %d ranks, N=%d, C=K=%d, %d layers, 4 comm cores/socket", o.Ranks, o.N, o.CK, o.Layers)
	t.AddNote("paper (8 CLX nodes): BWD GEMMs 5.40/5.39 ms vs RS/AG 2.84/1.86 ms — fully hidden")
	return t
}
