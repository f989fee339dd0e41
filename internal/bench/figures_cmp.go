package bench

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"sebdb/internal/chainsql"
	"sebdb/internal/core"
	"sebdb/internal/exec"
	"sebdb/internal/types"
)

// chainsqlReplica feeds an engine's chain into a ChainSQL node.
func chainsqlReplica(e *core.Engine) (*chainsql.Node, error) {
	n, err := chainsql.New()
	if err != nil {
		return nil, err
	}
	v := e.CurrentView()
	for h := uint64(0); h < v.Height(); h++ {
		b, err := v.Block(h)
		if err != nil {
			return nil, err
		}
		if err := n.ApplyBlock(b); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Fig20 — one-dimension tracking (Q2): SEBDB vs ChainSQL, varying
// blockchain size, result fixed at 10,000.
func Fig20(dir string, scale float64) (*Table, error) {
	t := &Table{
		Title:  "Fig. 20 — One-dimension tracking, SEBDB vs ChainSQL",
		Header: []string{"blocks", "SEBDB", "ChainSQL"},
		Note:   "both are index-backed and insensitive to blockchain size",
	}
	result := scaled(10_000, scale, 60)
	for _, blocks := range blockSizesFor(scale) {
		e, err := NewEngine(filepath.Join(dir, fmt.Sprintf("f20-%d", blocks)), core.CacheNone)
		if err != nil {
			return nil, err
		}
		if e.Height() == 0 {
			err = LoadTracking(e, GenConfig{
				Blocks: blocks, TxPerBlock: 100, ResultSize: result,
				Dist: Uniform, Seed: 1,
			})
			if err != nil {
				return nil, err
			}
		}
		cs, err := chainsqlReplica(e)
		if err != nil {
			e.Close() //sebdb:ignore-err best-effort cleanup on the error path
			return nil, err
		}
		nSe, dSe, err := Timed(func() (int, error) { return Q2(e, "org1", exec.MethodLayered) })
		if err != nil {
			e.Close() //sebdb:ignore-err best-effort cleanup on the error path
			return nil, err
		}
		nCs, dCs, err := Timed(func() (int, error) {
			txs, err := cs.TrackOneDim("org1")
			return len(txs), err
		})
		e.Close() //sebdb:ignore-err best-effort cleanup on the error path
		if err != nil {
			return nil, err
		}
		if nSe != result || nCs != result {
			return nil, fmt.Errorf("fig20: results %d/%d, want %d", nSe, nCs, result)
		}
		t.AddRow(fmt.Sprintf("%d", blocks), ms(dSe), ms(dCs))
	}
	return t, nil
}

// Fig21 — two-dimension tracking (Q3): SEBDB vs ChainSQL, 100,000
// transactions, 5,000 results, org1's transaction count growing
// 5,000 → 80,000 (transfer count fixed at 5,000).
func Fig21(dir string, scale float64) (*Table, error) {
	t := &Table{
		Title:  "Fig. 21 — Two-dimension tracking, SEBDB vs ChainSQL",
		Header: []string{"org1 txs", "SEBDB", "ChainSQL", "ChainSQL bytes"},
		Note:   "SEBDB flat (two-index intersection); ChainSQL grows with org1's volume (client-side filter)",
	}
	blocks := scaled(1000, scale, 20)
	total := scaled(100_000, scale, 2000)
	result := scaled(5_000, scale, 30)
	for _, paperOrg1 := range []int{5_000, 10_000, 20_000, 40_000, 80_000} {
		org1 := scaled(paperOrg1, scale, result)
		org1Only := org1 - result
		txPerBlock := total / blocks
		e, err := NewEngine(filepath.Join(dir, fmt.Sprintf("f21-%d", org1)), core.CacheNone)
		if err != nil {
			return nil, err
		}
		if e.Height() == 0 {
			// transfer count fixed: result matches + 0 extra transfers.
			if err := LoadTwoDim(e, blocks, txPerBlock, result, org1Only, 0, Uniform, 20, 1); err != nil {
				return nil, err
			}
		}
		cs, err := chainsqlReplica(e)
		if err != nil {
			e.Close() //sebdb:ignore-err best-effort cleanup on the error path
			return nil, err
		}
		nSe, dSe, err := Timed(func() (int, error) {
			return Q3(e, "org1", "transfer", nil, true)
		})
		if err != nil {
			e.Close() //sebdb:ignore-err best-effort cleanup on the error path
			return nil, err
		}
		var bytes int
		nCs, dCs, err := Timed(func() (int, error) {
			txs, b, err := cs.TrackTwoDimClient("org1", "transfer", 0, 0)
			bytes = b
			return len(txs), err
		})
		e.Close() //sebdb:ignore-err best-effort cleanup on the error path
		if err != nil {
			return nil, err
		}
		if nSe != result || nCs != result {
			return nil, fmt.Errorf("fig21: results %d/%d, want %d", nSe, nCs, result)
		}
		t.AddRow(fmt.Sprintf("%d", org1), ms(dSe), ms(dCs), kb(bytes))
	}
	return t, nil
}

// LoadCombined builds the Fig. 22 dataset: 10,000 transactions in each
// of donate/transfer/distribute, tracking and range results of 10,000
// (org1's donates, amounts in the Q4 window), join and on-off results
// of 5,000, with all needed layered indexes.
func LoadCombined(e *core.Engine, scale float64) error {
	if err := SetupSchema(e); err != nil {
		return err
	}
	per := scaled(10_000, scale, 200)
	joinRes := scaled(5_000, scale, 100)
	blocks := scaled(1_000, scale, 20)
	if err := SetupOffChain(e.OffChain(), joinRes); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(7))
	perBlock := make([][]*types.Transaction, blocks)
	add := func(n int, mk func(i int) *types.Transaction) {
		for i, b := range Placement(n, blocks, Uniform, 0, rng) {
			perBlock[b] = append(perBlock[b], mk(i))
		}
	}
	// donate: all sent by org1 with in-window amounts (Q2/Q4 result).
	add(per, func(i int) *types.Transaction {
		return &types.Transaction{SenID: "org1", Tname: "donate", Args: []types.Value{
			types.Str(fmt.Sprintf("donor%06d", i)), types.Str("education"),
			types.Dec(float64(RangeLo + i%(RangeHi-RangeLo+1))),
		}}
	})
	// transfer/distribute: joinRes matching organizations (Q5), the rest
	// unique; distribute's first joinRes donees exist off-chain (Q6).
	add(per, func(i int) *types.Transaction {
		org := fmt.Sprintf("tonly%06d", i)
		if i < joinRes {
			org = fmt.Sprintf("shared%06d", i)
		}
		return &types.Transaction{SenID: "org2", Tname: "transfer", Args: []types.Value{
			types.Str("education"), types.Str(fmt.Sprintf("donor%06d", i)),
			types.Str(org), types.Dec(float64(i)),
		}}
	})
	add(per, func(i int) *types.Transaction {
		org := fmt.Sprintf("donly%06d", i)
		donee := fmt.Sprintf("ghost%06d", i)
		if i < joinRes {
			org = fmt.Sprintf("shared%06d", i)
			donee = fmt.Sprintf("donee%06d", i)
		}
		return &types.Transaction{SenID: "org3", Tname: "distribute", Args: []types.Value{
			types.Str("education"), types.Str(fmt.Sprintf("donor%06d", i)),
			types.Str(org), types.Str(donee), types.Dec(float64(i)),
		}}
	})
	if err := CommitChain(e, perBlock); err != nil {
		return err
	}
	for _, idx := range [][2]string{
		{"donate", "amount"},
		{"transfer", "organization"}, {"distribute", "organization"},
		{"distribute", "donee"},
	} {
		if err := e.CreateIndex(idx[0], idx[1]); err != nil {
			return err
		}
	}
	return nil
}

// Fig22 — block cache vs transaction cache: mean latency of Q2, Q4,
// Q5, Q6 and Q7 under a warmed LRU of each policy.
func Fig22(dir string, scale float64) (*Table, error) {
	t := &Table{
		Title:  "Fig. 22 — Block cache vs transaction cache (warmed LRU)",
		Header: []string{"query", "block cache", "tx cache"},
		Note:   "tx cache wins for index-driven Q2/Q4/Q5/Q6; block cache wins whole-block Q7",
	}
	queries := []struct {
		name string
		run  func(e *core.Engine) (int, error)
	}{
		{"Q2", func(e *core.Engine) (int, error) { return Q2(e, "org1", exec.MethodLayered) }},
		{"Q4", func(e *core.Engine) (int, error) { return Q4(e, RangeLo, RangeHi, exec.MethodLayered) }},
		{"Q5", func(e *core.Engine) (int, error) { return Q5(e, exec.MethodLayered) }},
		{"Q6", func(e *core.Engine) (int, error) { return Q6(e, exec.MethodLayered) }},
		{"Q7", func(e *core.Engine) (int, error) { return Q7(e, 1) }},
	}
	requests := scaled(100, scale, 5)
	type cell = time.Duration
	results := make(map[string]map[core.CacheMode]cell)
	for _, mode := range []core.CacheMode{core.CacheBlocks, core.CacheTxs} {
		e, err := NewEngine(filepath.Join(dir, fmt.Sprintf("f22-%d", mode)), mode)
		if err != nil {
			return nil, err
		}
		if e.Height() == 0 {
			if err := LoadCombined(e, scale); err != nil {
				return nil, err
			}
		} else {
			if err := SetupOffChain(e.OffChain(), scaled(5_000, scale, 100)); err != nil {
				return nil, err
			}
			for _, idx := range [][2]string{
				{"donate", "amount"},
				{"transfer", "organization"}, {"distribute", "organization"},
				{"distribute", "donee"},
			} {
				if err := e.CreateIndex(idx[0], idx[1]); err != nil {
					return nil, err
				}
			}
		}
		for _, q := range queries {
			// Cache warming (§VII-H runs each query for 10 minutes first).
			if _, err := q.run(e); err != nil {
				e.Close() //sebdb:ignore-err best-effort cleanup on the error path
				return nil, err
			}
			start := time.Now()
			for r := 0; r < requests; r++ {
				if _, err := q.run(e); err != nil {
					e.Close() //sebdb:ignore-err best-effort cleanup on the error path
					return nil, err
				}
			}
			mean := time.Since(start) / time.Duration(requests)
			if results[q.name] == nil {
				results[q.name] = make(map[core.CacheMode]cell)
			}
			results[q.name][mode] = mean
		}
		e.Close() //sebdb:ignore-err best-effort cleanup on the error path
	}
	for _, q := range queries {
		t.AddRow(q.name, ms(results[q.name][core.CacheBlocks]), ms(results[q.name][core.CacheTxs]))
	}
	return t, nil
}
