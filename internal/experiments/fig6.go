package experiments

import (
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/perfmodel"
)

// fig6 simulates the Fig. 2 schedule — a standalone multi-layer MLP trained
// data-parallel on a cluster, with the SGD's reduce-scatter and all-gather
// overlapped with the backward GEMMs and 4 cores per socket dedicated to
// communication — and reports, for the backward and update passes, the
// GEMM/compute time versus the communication time and how much of it is
// exposed: the paper's point being that the allgather and reduce-scatter
// hide completely behind the GEMMs. The shape is the paper's: 8 CLX nodes
// with one process each, 5 layers, global minibatch N=1008, C=K=1024.
func fig6(Opts) *Table {
	const layers, n, ck, ranks = 5, 1008, 1024, 8
	topo := opaTree(ranks)
	sock := perfmodel.CLX8280
	cfg := cluster.Config{
		Ranks:     ranks,
		Topo:      topo,
		Socket:    sock,
		Backend:   cluster.CCLBackend, // 4 dedicated EPs per socket (§IV-A)
		CommCores: 4,
	}
	layerBytes := 4 * float64(ck) * float64(ck)
	localN := n / ranks
	// Every rank computes on the same cores, so one GEMM and one SGD sweep
	// price the whole run: the backward pass is 2 GEMMs per layer, the
	// update pass one SGD sweep per layer.
	cores := cfg.ComputeCores()
	gemmT := sock.GemmTimeN(2*float64(localN)*float64(ck)*float64(ck),
		4*float64(ck)*(float64(ck)+2*float64(localN)), cores, localN)
	sgdT := sock.StreamTime(3*layerBytes/float64(ranks), cores)

	// Each rank books its passes' busy and exposed communication time.
	type pass struct{ busy, exposed float64 }
	bwd, upd := make([]pass, ranks), make([]pass, ranks)
	cluster.Run(cfg, func(r *cluster.Rank) {
		cm := comm.New(r, topo)
		// Backward pass (Fig. 2 left): per layer, BWD-by-data and
		// BWD-by-weights GEMMs; the reduce-scatter of this layer's weight
		// gradients is enqueued right after they exist, and the all-gather
		// of the *previous* (upper) layer's reduced gradients rides along.
		rsHandles := make([]cluster.Handle, layers)
		for l := layers - 1; l >= 0; l-- {
			r.Compute(gemmT) // backward by data
			r.Compute(gemmT) // backward by weights
			rsHandles[l] = cm.AllreduceCost("reduce-scatter", nil, false, layerBytes/2)
			bwd[r.ID].busy += rsHandles[l].Busy
		}

		// Update pass (Fig. 2 right): per layer, wait for the
		// reduce-scatter, apply the SGD on the local shard, and all-gather
		// the updated weights, overlapped with the next layer's SGD.
		// Layers go in the same top-down order the backward pass enqueued
		// their reduce-scatters, so completions arrive in order.
		agHandles := make([]cluster.Handle, layers)
		for l := layers - 1; l >= 0; l-- {
			bwd[r.ID].exposed += r.Wait(rsHandles[l])
			r.Compute(sgdT)
			agHandles[l] = cm.AllreduceCost("allgather", nil, false, layerBytes/2)
			upd[r.ID].busy += agHandles[l].Busy
		}
		for _, h := range agHandles {
			upd[r.ID].exposed += r.Wait(h)
		}
	})

	var bwdBusy, bwdExposed, updBusy, updExposed float64
	for id := range ranks {
		updBusy += upd[id].busy / ranks
		bwdBusy += bwd[id].busy / ranks
		updExposed += upd[id].exposed / ranks
		bwdExposed += bwd[id].exposed / ranks
	}

	t := &Table{
		Title:   "Fig. 2/6: overlapping MLP GEMMs with SGD reduce-scatter/all-gather",
		Headers: []string{"pass", "compute (ms)", "comm busy (ms)", "comm exposed (ms)"},
	}
	t.AddRow("BWD pass", ms(2*gemmT*layers), ms(bwdBusy), ms(bwdExposed))
	t.AddRow("UPD pass", ms(sgdT*layers), ms(updBusy), ms(updExposed))
	t.AddNote("config: %d ranks, N=%d, C=K=%d, %d layers, 4 comm cores/socket", ranks, n, ck, layers)
	t.AddNote("paper (8 CLX nodes): BWD GEMMs 5.40/5.39 ms vs RS/AG 2.84/1.86 ms — fully hidden")
	return t
}
