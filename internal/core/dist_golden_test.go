package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
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

// timingHash is the SHA-256 of a timing run's numbers: IterSeconds and
// ComputePerIter, then for each label in labelNames order and each of
// WaitPerIter, BusyPerIter and PrepPerIter a presence byte and the value's
// bits, all little-endian.
func timingHash(res *DistResult) string {
	b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(res.IterSeconds))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(res.ComputePerIter))
	for _, l := range labelNames {
		for _, m := range []map[string]float64{res.WaitPerIter, res.BusyPerIter, res.PrepPerIter} {
			v, ok := m[l]
			present := byte(0)
			if ok {
				present = 1
			}
			b = binary.LittleEndian.AppendUint64(append(b, present), math.Float64bits(v))
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// timingRuns are the results TestTimingGolden pins, with their names: the
// timing rows of hook 3 (engineRows, then timingSample), then every segment
// of elasticCases, in order.
func timingRuns(t *testing.T) (names []string, results []*DistResult) {
	for _, dc := range slices.Concat(engineRows, timingSample).configs() {
		names, results = append(names, label(dc)), append(results, mustRun(dc))
	}
	for _, c := range elasticCases() {
		for i, sg := range elastic(t, c.ec, c.events...).Segments {
			names = append(names, fmt.Sprintf("%s segment %d", label(c.ec.Base), i))
			results = append(results, sg.Res)
		}
	}
	return names, results
}

// timingHashes holds timingHash of timingRuns, in order.
var timingHashes = []string{
	// engineRows
	"46e62781e087ca1fb6e2954df2d9ea8ca577a0ed0d4f2972c8915d162e535846",
	"a4538a8aa7ff4f851f9cccd38f218f9958de76cd2beabc084c05f41c1cd2ee05",
	"739756762dc957ac274f316b627d5edd2ddf682a321afcf8a30b2278ad3ef7c3",
	"4b5f248c95eb886350c8664c1922b29eecfe71089f115f32e32d7e3ee5cbb73b",
	"fe0fb16259bcc75653e99e7e8620e7345d26a6480800c1f75745c34d3ddfc286",
	"c9afd5a803eb68b9fd8ff5a972feaeac9ea4f3f86073d5bb655a017c97eeae71",
	"917f18e4d37b1591c50c587d85402ed733c04a920c0c82983bde4af183b6a7ad",
	"32be55a6c433749b2c70e3bffc3016c5a5ccc98acade843b1ea6872b29ad0fb5",
	"e12c4e1297b21f7d1ad58d897a4b0212d07912cbf4b150f58eef4f521b97b3b0",
	"7cf9bffb7de1e102cd94f2f50d208e68d49339265e5aa1b17e2a8ba1ea5dbb00",
	"df925153cee6fc30aa59d0f04c16a1d7366acb09815676a6c486e352cb51f062",
	"2bf23acf3988ddd62faf03a671ddea4d6c454375b67bf13b1b17be7dc9dcd81c",
	"81daa0c08efe63d7a3d0cd79d02cada396c66d4cc03ae25c8e09bc42337703ce",
	"e8c4cf0fca0e95038b0487a4ef4b89cf4c61e2ebf6e0f4d203eb0c30e0a9c70b",
	"02da76e68a125b6c785616ce30801f9dab80dcc6c8b93f30fea09caf87ae7eef",
	"37ad6786566916500c874ef1010e9a2f1b773fabc89da7153e0e7d2b700e8884",
	"73d1aa9660274a3149278e4e284a6ae41c0d5a16529130f8d14ab6f5f08f25bc",
	"b1a72c15b5257983834081d768dfe5e3b80103a06c7bb2ea3b81afbf14d34c8f",
	"7e8ca8114845694b5eeb6b048b2651aa570dcfe445841e7a528d2062cc7b68b4",
	"7106cb53352c568f0d9f09377c66942e44ff173afac14e1d1c29f69bbe9dc73c",
	"f45b216c9e6c30dc8c87635f15672c868d10502797c27ec32e151b8cc04f760a",
	"33f7cd747e59063400274ded78b259a08903bb854e39edb0979ac13fe91a476d",
	"436bd6f2b35f49e4bb3665a539970ed65209e2e0469d458e03c9bfe3ad9eef58",
	"4557dbc33f6779073e98b3b6a339641a29a8a4feaa65d4485dd9a50fb85db203",
	"6023acfb947af0dd56df52f8afaa2ec3ea55eb8a282b8080f39626942bef7580",
	"7d207cf3c2c3945b66127b97be426bfe59b5cca7496b8e2ae62203fb6784e02b",
	"4c5c148f265d27751611da40cade58676b9f0a3eeb0459a3fa56f84b4aeca759",
	"7d207cf3c2c3945b66127b97be426bfe59b5cca7496b8e2ae62203fb6784e02b",
	"3c33a81f9921e1ead4bd35170f7cd6a9819df893f26ba5061a9391cb986a9bb1",
	"2b33a34706ec050d84287bc23f521fe9761c9724b8b70b1e6f9c76ed03561cc1",
	"3055abb20da098d7948c584c244940ef2ce1d3992e86f50351aab438f9fdfeb0",
	"2b33a34706ec050d84287bc23f521fe9761c9724b8b70b1e6f9c76ed03561cc1",
	"ebeafd67ab94679771fa81aad6d4abba121ab46764e81f15cca96e0e721111dc",
	"d07f1eb0147c2e23ba8d09e8b8d9aab9ffb4c7414177bc585fac27f69fa4dd3b",
	"7e57e0a66bd412b48b5a380750441c8a710eb303c389d55681b327973cc0eb79",
	"d07f1eb0147c2e23ba8d09e8b8d9aab9ffb4c7414177bc585fac27f69fa4dd3b",
	"dad8d9d194a241641ffe5369fd06a75e6bf3e3ee124a6bac707de38240bfbe75",
	"10f20209d9f887ec9a35d3693029b45d1270125cdd12beeb1753d787c7ecd3ed",
	"dec39643ed802a42c5e76b2fa4cef277ee0e1bd775cc26ad1d30f21b6b5ad16a",
	"10f20209d9f887ec9a35d3693029b45d1270125cdd12beeb1753d787c7ecd3ed",
	// timingSample
	"77e98cd55ec29f63f899c90e44cadde0b24ce94e8d2ecb1f2ba7946f54e8a129",
	"ae440a38156c549f206713d01efe420eb537a9ebde40b8df568657b6da0d6901",
	"1decce3f7fa1e796d325a9b15418da54b1ab4d7ddda7bda124bf3197a405d075",
	"be15f0b57f445c80759aa9dfb793686f066555a8fcd4f0423edd31677b640d93",
	"e568721901054510226d8aa3b6d9338b3c1fd3dfb6180a007decee00e5e78143",
	"19ed956f7cb0d15f907e7ca1a4a92e94bce62fdb0b90db3ffebd60d2f75473f0",
	"cc6b3d7c7d8978572bfa6aa126a95edd8021bcc76b3785528126a4ac9479b7d6",
	"8999ca46fb65029790781c81142faf39bcae02ac78ce3e496c879d6e867ff4d2",
	"fa2a3c148b18c11e397ad14fc378974cd29729ae869e44d1cde9ad936a24217e",
	"00e67211adacabefdb4ed25584e839d40400d235a2ddffdeade369131e18b910",
	// elasticCases: the churn case's two segments
	"1a507f9e01fad3956544827c53a1676fb5e1ace4142feabe0b1debf327f7a636",
	"160d2ac5e9bf1c5682062e57131eb9680e27a6357149cbbb132323fc43087390",
	// elasticCases: timingSample[0]'s three segments
	"527e017128c06dbade80f7f3e57445a68968bf4555822a7441e81ee466538265",
	"0bbb5282adf2f6ad6c3650c6f4ef656e638ea8c553bf88827b605c9d09569837",
	"0b974cdbda9a781382cbbb0ba4192d44e5811a076b8823effdd9363065fa517e",
	// elasticCases: timingSample[1]'s three segments
	"a4851a988e989c7971187909418532fdf90ea4e3db7b9a96fc280eac3f5a1a32",
	"48e267cccd9f3573f6c858456ec855632e60aed0ff3ffaca547f13547638966b",
	"1f87886ce7f59ecc12c6da796dbfa064944ba7305cbcb76b67acb6e3ebb87501",
	// elasticCases: timingSample[2]'s three segments
	"e6594b111868dfd6a1f4a187c70adaf0191e005e1717bf40747a4f1d2d437dee",
	"fa0dee0b34b27a390966aa1ee8c54a7289c01eb1b0410648371147f1a892f883",
	"4e4b5f87a24569920affd7c683f37b55895f53c8a054d662689132fb1582e19a",
	// elasticCases: timingSample[3]'s three segments
	"d5e3048ff29e8995e676d2a2d86fb0225e51ed2af1b028de375ed48bad2f2e00",
	"984b8a9dd096afcef7491676dc1735ba2790a8e8ab4ecfb6c801c4edd97fdbdd",
	"0dc1489b11ef6b68cc387ccaf87ebd834db97c6906a43d60fb76452c73f9a226",
	// elasticCases: timingSample[4]'s three segments
	"1121364b8df5a2bfdb2e5a7febb7bf24c17597d4677d7b5a851aca55a8220013",
	"6bab8e34cef698587e819f9cef538e5920b2e6c381a484ef96935efaa647d218",
	"95a409de94d80c86c9fd90d7c397d2e554e72b21f61185952103f116bdc776d1",
	// elasticCases: timingSample[5]'s three segments
	"1c53a85da7ae41f2bc7df386c58b37bbd7a63fa6abd90991f713c0ec12e4e177",
	"d125f0a166028f52f32fd68168c143e8c2dbce9e0fc032cc0c27dc51336c6897",
	"d71d5dbb499ec50a6a63faae4f1de62fb2d9378443fd8be4f7fdc3fcc300f220",
	// elasticCases: timingSample[6]'s three segments
	"7c42d006304f3720e50bb3a8cf41a4a5c9281e8a4054c0e058719c47d4d37303",
	"8cd36cd943e66df87a1632e2f93be5ca5c24d95fa235489dda73d977b0d818f1",
	"2e1ed4f1bcfb43fca3da490034a8225a475e810c3476f5f995e8e845939dba23",
	// elasticCases: timingSample[7]'s three segments
	"33cb0601293b2c6768720a7559f041098cc5c780f70f5b80213ee69718dfaca3",
	"8e66da7aad5d12b102fff0cdad180a57455ef4309365008bbc18f290d7e893a6",
	"4b7dfc33914f92fb5159a12d893779126298b6ee0bca350cf42072b2946c43ee",
	// elasticCases: timingSample[8]'s three segments
	"67dc012b6a23aa5714411809d1db4917238ddf0be08ec312abf383efcb13b1f7",
	"cca1aba04c11601d6ef1d18db61f9fef14a1efea637155d7b39300f54508a287",
	"cb022b07c104608471ac11ca441e9bb70b587efa02ed5ab38951fa2e248aed63",
	// elasticCases: timingSample[9]'s three segments
	"ee704dfa980f14260cd8fb8c4a1668c7f798906610b0b056ec4224af4644c542",
	"fc0152fc97f56bb456fd80e0e05b6da5d61ab6eead501b954b41735813edf0a6",
	"95c6418443fe7b42cd8815a6ec128926f042ebd43d0922931c98fa3976a3cd80",
}

// TestTimingGolden holds the evaluator's results to committed hashes, bit for
// bit. Hook 3 holds the two engines to each other; this pins what they agree
// on, so a change to the one walker both engines share cannot pass unseen.
func TestTimingGolden(t *testing.T) {
	t.Parallel() // counts no allocations
	names, results := timingRuns(t)
	got := make([]string, len(results))
	for i, res := range results {
		got[i] = timingHash(res)
		if i >= len(timingHashes) || got[i] != timingHashes[i] {
			t.Errorf("%s: hash %s", names[i], got[i])
		}
	}
	if len(timingHashes) != len(got) {
		t.Errorf("%d hashes for %d runs", len(timingHashes), len(got))
	}
	if t.Failed() {
		t.Logf("hashes of this build, in timingRuns order:\n%q", got)
	}
}
