package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"
)

// distHash is the SHA-256 of a functional run's numbers: runBits of every
// rank, in rank order.
func distHash(res *DistResult) string {
	h := sha256.New()
	var b []byte
	for rk, m := range res.Models {
		b = runBits(b[:0], res.Losses[rk], m)
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runBits appends one model's training record to b: every iteration's loss
// bits, then the final bottom and top MLP parameters and the tables the
// model holds, all little-endian.
func runBits(b []byte, losses []float64, m *Model) []byte {
	f32 := func(p []float32) {
		for _, v := range p {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
	}
	for _, l := range losses {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(l))
	}
	m.Bot.VisitParams(func(_ string, p []float32) { f32(p) })
	m.Top.VisitParams(func(_ string, p []float32) { f32(p) })
	for _, tab := range m.Tables {
		if tab != nil {
			f32(tab.W)
		}
	}
	return b
}

// goldenRuns are the runs TestDistributedGolden pins: tinyConfig on the plain
// flat-sync schedule at 2 and 4 ranks for every strategy × backend, the same
// at 3 ranks over 96 samples (ranks owning 2, 1 and 1 tables), then the
// functional sample.
func goldenRuns() []DistConfig {
	uneven := tiny.x(axVariant).configs()
	for i := range uneven {
		uneven[i] = distTestConfig(*uneven[i].RunCfg, 3, 96, uneven[i].Iters, uneven[i].Variant, true)
	}
	return slices.Concat(tiny.x(axShape).x(axVariant).configs(), uneven, funcSample.configs())
}

// goldenHashes holds distHash of goldenRuns, in order.
var goldenHashes = []string{
	// 2 ranks, allVariants
	"3a5bad6f85fe9678f40a54c47b270c69cd366ba21e24bf490e890fc88384b1cb",
	"3a5bad6f85fe9678f40a54c47b270c69cd366ba21e24bf490e890fc88384b1cb",
	"3a5bad6f85fe9678f40a54c47b270c69cd366ba21e24bf490e890fc88384b1cb",
	"3a5bad6f85fe9678f40a54c47b270c69cd366ba21e24bf490e890fc88384b1cb",
	"3a5bad6f85fe9678f40a54c47b270c69cd366ba21e24bf490e890fc88384b1cb",
	"3a5bad6f85fe9678f40a54c47b270c69cd366ba21e24bf490e890fc88384b1cb",
	// 4 ranks, allVariants
	"d1e93f212913578b84b7ce40df4a8b7299d4218280e75ea89770b20ec1f5fc00",
	"d1e93f212913578b84b7ce40df4a8b7299d4218280e75ea89770b20ec1f5fc00",
	"d1e93f212913578b84b7ce40df4a8b7299d4218280e75ea89770b20ec1f5fc00",
	"d1e93f212913578b84b7ce40df4a8b7299d4218280e75ea89770b20ec1f5fc00",
	"d1e93f212913578b84b7ce40df4a8b7299d4218280e75ea89770b20ec1f5fc00",
	"d1e93f212913578b84b7ce40df4a8b7299d4218280e75ea89770b20ec1f5fc00",
	// 3 ranks, allVariants
	"f69242054fccb39d443ebcca26e9a8074e6f51ae558553ee76bb4aad52a29216",
	"f69242054fccb39d443ebcca26e9a8074e6f51ae558553ee76bb4aad52a29216",
	"f69242054fccb39d443ebcca26e9a8074e6f51ae558553ee76bb4aad52a29216",
	"f69242054fccb39d443ebcca26e9a8074e6f51ae558553ee76bb4aad52a29216",
	"f69242054fccb39d443ebcca26e9a8074e6f51ae558553ee76bb4aad52a29216",
	"f69242054fccb39d443ebcca26e9a8074e6f51ae558553ee76bb4aad52a29216",
	// funcSample
	"3a5bad6f85fe9678f40a54c47b270c69cd366ba21e24bf490e890fc88384b1cb",
	"d1e93f212913578b84b7ce40df4a8b7299d4218280e75ea89770b20ec1f5fc00",
	"3a5bad6f85fe9678f40a54c47b270c69cd366ba21e24bf490e890fc88384b1cb",
	"d1e93f212913578b84b7ce40df4a8b7299d4218280e75ea89770b20ec1f5fc00",
	"3a5bad6f85fe9678f40a54c47b270c69cd366ba21e24bf490e890fc88384b1cb",
	"3a5bad6f85fe9678f40a54c47b270c69cd366ba21e24bf490e890fc88384b1cb",
	"d1e93f212913578b84b7ce40df4a8b7299d4218280e75ea89770b20ec1f5fc00",
	"3a5bad6f85fe9678f40a54c47b270c69cd366ba21e24bf490e890fc88384b1cb",
	"d1e93f212913578b84b7ce40df4a8b7299d4218280e75ea89770b20ec1f5fc00",
	"d1e93f212913578b84b7ce40df4a8b7299d4218280e75ea89770b20ec1f5fc00",
}

// TestDistributedGolden holds every golden run's losses, replicas and owned
// tables to committed hashes, bit for bit: how the exchange moves rows and
// gradients between ranks may change, the numbers may not.
func TestDistributedGolden(t *testing.T) {
	skipWithoutVectorGEMM(t)
	dcs := goldenRuns()
	got := make([]string, len(dcs))
	for i, dc := range dcs {
		got[i] = distHash(mustRun(dc))
		if i >= len(goldenHashes) || got[i] != goldenHashes[i] {
			t.Errorf("%s: hash %s", label(dc), got[i])
		}
	}
	if t.Failed() {
		t.Logf("hashes of this build, in goldenRuns order:\n%q", got)
	}
}
