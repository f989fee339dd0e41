package main

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"sebdb/internal/core"
	"sebdb/internal/types"
)

// sizes fixes the data and op volumes of a run. fullSize is what
// BENCHMARK.json runs; tinySize keeps the smoke test to seconds.
//
// Every workload times a fixed amount of work, --seconds times its
// rate: about --seconds of wall time on a 2-core reference machine.
// Counts, chain growth and memory then do not depend on how fast the
// host happens to be, and op_p99_ms always has its samples.
type sizes struct {
	// qmRate, fleetRate: ops per requested second; ingestRate: batches.
	qmRate, fleetRate, ingestRate float64
	// query-mix chain: qmBlocks data blocks of qmTxs transactions; the
	// first qmWarm ops of the sequence warm the cache before timing.
	qmBlocks, qmTxs, qmWarm int
	// qmCacheBytes is about a quarter of the query-mix segment bytes.
	qmCacheBytes int64
	// ingestBatch is the number of signed transactions per batch.
	ingestBatch int
	// ingestSegment and ingestCheckpoint make segments roll and
	// checkpoints land several times in a run.
	ingestSegment    int64
	ingestCheckpoint int
	// verified-fleet chain and the size of each leader commit.
	fleetBlocks, fleetTxs, fleetCommitTxs int
	// minOps is the fewest timed ops (ingest: batches) that give
	// op_p99_ms ten samples beyond it; the tiny size does not gate on it.
	minOps int
}

var fullSize = sizes{
	qmRate: 340, fleetRate: 350, ingestRate: 80,
	qmBlocks: 500, qmTxs: 200, qmWarm: 400,
	qmCacheBytes:  2500 << 10,
	ingestBatch:   50,
	ingestSegment: 1 << 20, ingestCheckpoint: 50,
	fleetBlocks: 200, fleetTxs: 100, fleetCommitTxs: 100,
	minOps: 1000,
}

var tinySize = sizes{
	qmRate: 100, fleetRate: 100, ingestRate: 40,
	qmBlocks: 20, qmTxs: 40, qmWarm: 10,
	qmCacheBytes:  64 << 10,
	ingestBatch:   10,
	ingestSegment: 16 << 10, ingestCheckpoint: 5,
	fleetBlocks: 12, fleetTxs: 30, fleetCommitTxs: 20,
	minOps: 0,
}

const (
	numSenders = 21 // org1 .. org21
	// org1 is the low-volume operator: one transaction in lowVolumeOdds.
	lowVolumeOdds = 40
	// org1's donations form the Q4 result set: amounts in
	// [resultLo, resultLo+resultSpan). Every other donation is a filler
	// below fillerMax, outside every Q4 range.
	resultLo   = 100_000
	resultSpan = 10_000
	fillerMax  = 10_000
	// q4Width is a narrow range: about 4% of the result set.
	q4Width = 400
	// numOrgs is the join key domain of transfer/distribute.organization.
	numOrgs = 100
)

var tables = [3]string{"donate", "transfer", "distribute"}

func senderName(s int) string { return fmt.Sprintf("org%d", s+1) }

// blockTS is the timestamp of the block at height h (the schema block
// is height 0 at ts 1): every transaction carries its block's time, so
// a height range maps exactly onto a TRACE/WINDOW time range.
func blockTS(h int) int64 { return int64(h) * 1000 }

// truth is what the generator knows about a loaded chain, enough to
// compute every query's expected row count. Index b is data block b at
// height b+1.
type truth struct {
	// bySender[b][s][t] counts transactions of sender s in table t.
	bySender [][numSenders][3]int32
	// transferOrg/distributeOrg[b][o] count rows with organization o.
	transferOrg, distributeOrg [][numOrgs]int32
	// resultAmounts counts org1's donations by amount-resultLo.
	resultAmounts [resultSpan]int32
	// phase and results drive nextResultOffset.
	phase   float64
	results int
}

func newTruth(rng *rand.Rand, blocks int) *truth {
	return &truth{
		phase:         rng.Float64(),
		bySender:      make([][numSenders][3]int32, blocks),
		transferOrg:   make([][numOrgs]int32, blocks),
		distributeOrg: make([][numOrgs]int32, blocks),
	}
}

// genBlock draws data block b. Its layout is fixed: half donate, a
// quarter each transfer and distribute; one slot in lowVolumeOdds
// belongs to org1, the rest rotate over org2..org21. The seed decides
// where each slot lands in the block and every value in it. Fixed
// layouts keep every seed's chain statistically alike, so a run's
// numbers depend on the code more than on the seed.
func genBlock(rng *rand.Rand, tr *truth, b, txs int) []*types.Transaction {
	ts := blockTS(b + 1)
	perm := rng.Perm(txs)
	out := make([]*types.Transaction, txs)
	for i := 0; i < txs; i++ {
		t := 0
		switch {
		case i >= txs*3/4:
			t = 2
		case i >= txs/2:
			t = 1
		}
		s := 1 + (i+b)%(numSenders-1)
		if i%lowVolumeOdds == 0 {
			s = 0
		}
		out[perm[i]] = genTx(rng, tr, b, ts, s, t)
	}
	return out
}

// genTx draws the values of one transaction of sender s in table t and
// records it in tr.
func genTx(rng *rand.Rand, tr *truth, b int, ts int64, s, t int) *types.Transaction {
	donor := types.Str(fmt.Sprintf("donor%06d", rng.Intn(1_000_000)))
	project := types.Str(fmt.Sprintf("project%02d", rng.Intn(50)))
	tx := &types.Transaction{Ts: ts, SenID: senderName(s), Tname: tables[t]}
	switch t {
	case 0:
		amount := rng.Intn(fillerMax)
		if s == 0 {
			off := tr.nextResultOffset()
			amount = resultLo + off
			tr.resultAmounts[off]++
		}
		tx.Args = []types.Value{donor, project, types.Dec(float64(amount))}
	case 1:
		o := rng.Intn(numOrgs)
		tr.transferOrg[b][o]++
		tx.Args = []types.Value{project, donor, orgName(o), types.Dec(float64(rng.Intn(fillerMax)))}
	case 2:
		o := rng.Intn(numOrgs)
		tr.distributeOrg[b][o]++
		tx.Args = []types.Value{project, donor, orgName(o),
			types.Str(fmt.Sprintf("donee%06d", rng.Intn(1_000_000))), types.Dec(float64(rng.Intn(fillerMax)))}
	}
	tr.bySender[b][s][t]++
	return tx
}

// nextResultOffset spreads org1's donations evenly over the result
// span with a golden-ratio sequence from a seeded phase: any prefix is
// near-uniform, so the amount histogram's bucket edges fall at the
// same places whatever the seed.
func (tr *truth) nextResultOffset() int {
	tr.results++
	x := tr.phase + float64(tr.results)*0.6180339887498949
	return int((x - math.Floor(x)) * resultSpan)
}

func orgName(o int) types.Value { return types.Str(fmt.Sprintf("ngo%03d", o)) }

// loadChain generates and commits blocks data blocks of txs
// transactions each, one block at a time so the generator never holds
// more than one block.
func loadChain(e *core.Engine, rng *rand.Rand, blocks, txs int) (*truth, error) {
	tr := newTruth(rng, blocks)
	for b := 0; b < blocks; b++ {
		if _, err := e.CommitBlock(genBlock(rng, tr, b, txs), blockTS(b+1)); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// trackCount is the expected row count of TRACE over data blocks
// [b0, b1] for sender s, in table t (t < 0: every table).
func (tr *truth) trackCount(b0, b1, s, t int) int {
	n := 0
	for b := b0; b <= b1; b++ {
		for tt := 0; tt < 3; tt++ {
			if t < 0 || t == tt {
				n += int(tr.bySender[b][s][tt])
			}
		}
	}
	return n
}

// rangeCount is the expected row count of amount BETWEEN lo AND hi for
// a range inside the result span.
func (tr *truth) rangeCount(lo, hi int) int {
	n := 0
	for a := lo; a <= hi; a++ {
		n += int(tr.resultAmounts[a-resultLo])
	}
	return n
}

// joinCount is the expected row count of transfer ⋈ distribute on
// organization over data blocks [b0, b1].
func (tr *truth) joinCount(b0, b1 int) int {
	var t, d [numOrgs]int
	for b := b0; b <= b1; b++ {
		for o := 0; o < numOrgs; o++ {
			t[o] += int(tr.transferOrg[b][o])
			d[o] += int(tr.distributeOrg[b][o])
		}
	}
	n := 0
	for o := range t {
		n += t[o] * d[o]
	}
	return n
}

// recentBlock draws a data block skewed toward the chain tip with a
// Zipf law over the distance from the tip.
type recentBlock struct {
	z      *rand.Zipf
	blocks int
}

func newRecentBlock(rng *rand.Rand, blocks int) *recentBlock {
	return &recentBlock{z: rand.NewZipf(rng, 1.1, 4, uint64(blocks-1)), blocks: blocks}
}

func (r *recentBlock) next() int { return r.blocks - 1 - int(r.z.Uint64()) }

// window returns a w-block data-block window ending at a recent block.
func (r *recentBlock) window(w int) (int, int) {
	b1 := r.next()
	b0 := b1 - w + 1
	if b0 < 0 {
		b0 = 0
	}
	return b0, b1
}

// senderKey derives sender s's ed25519 key from the seed.
func senderKey(seed int64, s int) ed25519.PrivateKey {
	var buf [ed25519.SeedSize]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(s))
	copy(buf[16:], "perfbench-sender")
	return ed25519.NewKeyFromSeed(buf[:])
}

// opCount is the number of timed ops (ingest: batches) of a run.
func opCount(o options, rate float64) int {
	n := int(o.seconds * rate)
	if n < 1 {
		n = 1
	}
	return n
}
