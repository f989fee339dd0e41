// Donation DApp: the running example of the paper's introduction. Three
// on-chain transaction types (donate, transfer, distribute) model the
// money flow donor → project → organization → donee; private details
// live off-chain in the node's local RDBMS. The example exercises
// signed transactions, track-trace lineage, the on-chain join and the
// on-off-chain join.
package main

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"log"
	"os"

	"sebdb/internal/core"
	"sebdb/internal/rdbms"
	"sebdb/internal/types"
)

func main() {
	dir, err := os.MkdirTemp("", "sebdb-donation-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir) //sebdb:ignore-err example exit path; errors have nowhere to go

	engine, err := core.Open(core.Config{Dir: dir, BlockMaxTxs: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close() //sebdb:ignore-err example exit path; errors have nowhere to go

	// Each participant signs its transactions with its own key.
	for _, who := range []string{"jack", "charity", "school1"} {
		_, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			log.Fatal(err)
		}
		engine.RegisterKey(who, priv)
	}

	// On-chain schema (Fig. 6's three main tables).
	for _, ddl := range []string{
		`CREATE donate (donor string, project string, amount decimal)`,
		`CREATE transfer (project string, donor string, organization string, amount decimal)`,
		`CREATE distribute (project string, donor string, organization string, donee string, amount decimal)`,
	} {
		if _, err := engine.Execute(ddl); err != nil {
			log.Fatal(err)
		}
	}

	// Off-chain: the school's private donee records.
	db := engine.OffChain()
	must(db.CreateTable("doneeinfo", []rdbms.Column{
		{Name: "donee", Kind: types.KindString},
		{Name: "family_income", Kind: types.KindDecimal},
		{Name: "school", Kind: types.KindString},
	}))
	must(db.Insert("doneeinfo", rdbms.Row{types.Str("tom"), types.Dec(8_000), types.Str("school1")}))
	must(db.Insert("doneeinfo", rdbms.Row{types.Str("ann"), types.Dec(12_000), types.Str("school1")}))

	// The money flow of Example 1.
	exec := func(sender, sql string) {
		if _, err := engine.ExecuteAs(sender, sql); err != nil {
			log.Fatalf("%s: %v", sql, err)
		}
	}
	exec("jack", `INSERT INTO donate ("jack", "education", 100)`)
	exec("jack", `INSERT INTO donate ("jack", "education", 50)`)
	exec("charity", `INSERT INTO transfer ("education", "jack", "school1", 120)`)
	exec("school1", `INSERT INTO distribute ("education", "jack", "school1", "tom", 70)`)
	exec("school1", `INSERT INTO distribute ("education", "jack", "school1", "ann", 50)`)
	must(engine.Flush())

	// Every committed transaction carries a verifiable signature.
	view := engine.CurrentView()
	blk, err := view.Block(view.Height() - 1)
	must(err)
	for _, tx := range blk.Txs {
		if !tx.VerifySig() {
			log.Fatalf("unsigned transaction %d slipped in", tx.Tid)
		}
	}

	// Lineage: everything the charity did (track-trace, Q2-style).
	show(engine, `TRACE OPERATOR = "charity"`)
	// Where did jack's donation go? Follow transfer ⋈ distribute.
	show(engine, `SELECT * FROM transfer, distribute ON transfer.organization = distribute.organization`)
	// Who exactly received it? Join the chain against the school's
	// private records (on-off-chain join, Q6-style).
	show(engine, `SELECT * FROM onchain.distribute, offchain.doneeinfo ON distribute.donee = doneeinfo.donee`)

	fmt.Printf("\ndonation ledger: %d blocks\n", engine.Height())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func show(e *core.Engine, sql string) {
	fmt.Printf("\n> %s\n", sql)
	res, err := e.Execute(sql)
	must(err)
	fmt.Println(res.Columns)
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		fmt.Println(cells)
	}
}
