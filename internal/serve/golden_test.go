package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/cpu"
)

// resultHash is the SHA-256 of a functional run's answers: Served, Shed and
// Batches, every prediction's bits in request order, then every latency's
// bits in the sorted order Result keeps them, all little-endian.
func resultHash(res *Result) string {
	var b []byte
	for _, n := range []int{res.Served, res.Shed, res.Batches} {
		b = binary.LittleEndian.AppendUint64(b, uint64(n))
	}
	for _, p := range res.Preds {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(p))
	}
	for _, l := range res.Latencies {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(l))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenServeRuns are the functional runs TestServeFunctionalGolden pins:
// the ClickLog config in full batches of 8, the request log at the
// serve-func shape (8 replicas, B32 / w2 ms, SLO 2·(MaxWait + service),
// 0.9 × capacity; nine full batches and a ragged last one), and an
// overloaded run whose SLO sheds a quarter of the requests, leaving NaN
// predictions.
func goldenServeRuns(t *testing.T) []struct {
	name string
	c    Config
} {
	t.Helper()
	shed := functionalConfig(8)
	svc, err := shed.ServiceTime(1)
	if err != nil {
		t.Fatal(err)
	}
	shed.Policy.SLO = 1.5 * svc
	return []struct {
		name string
		c    Config
	}{{"ClickLog B8", functionalConfig(8)}, {"RequestLog serve-func", serveFuncConfig(t, 300)}, {"shedding", shed}}
}

// goldenServeHashes holds resultHash of goldenServeRuns, in order.
var goldenServeHashes = []string{
	"91d67777c26e5383ed4c55068aeea19a15f3d01985d7b422c5f81c436f711be9",
	"68e7d036ca49d39f9f0ff501e6e8d0e3cc15503dcbef61c9da341a52264111d7",
	"eafa6dd16e22816411e9c0ee087dd4c98dd484eeb684b68712eb89942c8b1c93",
}

// TestServeFunctionalGolden holds three functional runs' predictions,
// latencies and counts to committed hashes, bit for bit: how serving
// schedules its fills and forwards may change, its answers may not.
func TestServeFunctionalGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" || cpu.Vector() == cpu.Go {
		t.Skip("golden hashes are recorded on amd64's vector GEMM tiles; the Go kernel matches them only to rounding")
	}
	runs := goldenServeRuns(t)
	got := make([]string, len(runs))
	for i, r := range runs {
		res := mustRun(t, r.c)
		got[i] = resultHash(res)
		if i >= len(goldenServeHashes) || got[i] != goldenServeHashes[i] {
			t.Errorf("%s: hash %s (served %d, shed %d, batches %d)", r.name, got[i], res.Served, res.Shed, res.Batches)
		}
	}
	if t.Failed() {
		t.Logf("hashes of this build, in goldenServeRuns order:\n%q", got)
	}
}
