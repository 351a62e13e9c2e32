package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// golden pins each workload's deterministic results at its default seed,
// one per population: the SHA-256 of the JSON encoding of the
// cluster.Result (plus the merged trace summary on replay-traced) or of the
// overhead.SweepAll figures. A change that alters any simulated outcome
// changes the digests.
var golden = map[string][populations]string{
	"flash-admit": {
		"cb7c2c24b245c810cb33d6fb1ee69afa99ca1c2b874bd787b0946f8368eb755d",
		"164575481efd4796b6d0aeae520cd9f2aba81f66ee634dbe0f12347c5e63d44b",
		"99bf76cb0c92ebede6ff4889620054d02816eda005e8b7ff5b3107cbba88402d",
		"4ba33c0fa4efacd6e7259ef404844b01e03264ebaf2f9c07196bba4944104467",
		"7ddc74bbaeacd778ae383b173bb1570431304046332f67557f5a844300293ace",
		"311153379e3a6d979b78179da3f69393cd0f30a7630804242e1a0749864fce4c",
	},
	"paper-sweep": {
		"c741bbb3c4b7f0c3239893d86d404c39ef647c66745e404b91d420685e42ee10",
		"41f12ae4d5b5181f67fcc420696fc205ccfb5842ebfe80bb88ac06b04c87996a",
		"4b7dfa04084880eceaa528181bb12a56ad2e78a1eba7948a44a5ef04e3f7f181",
		"01aca4f1b5d1d9f88b33e11a7747e9d197c1208807c2cafbf7f6c3dfc355bc47",
		"a091db02466fd5e55c34fc04390322ec4a6727e93cdda4edeed42f30ddfb2e2e",
		"d977b234108d0bea82f2ca1a428d7d98b952b07dbeb71e494bc34dd9cbbb569b",
	},
	"replay-traced": {
		"bc40dc65dd8e857876a230f009a15434bdbda447bad3b3b6a67acf6e01c9dc66",
		"4ed738f2221f3b6b7f778664ef3ae336343419e53a4a86bc57b6b08697dea4f8",
		"b9c56a6fe07a8f4bbd901a5c26a7539ff9fca5934c6d887439c3bca1ee397512",
		"c7a23d39d9968ed1ad396271df40771511aa2e548b74a3996e589573ebaa6bc5",
		"652b7b1b5c49b9d244dc0d948ea72828b24ccfa6818dda3a4c6a9dfc8b981c11",
		"3fa1edae9fbc683e202c93e2d3ab7cd297d14d29b0d45f77d8bd723b81c02073",
	},
}

// checker counts output checks. Every failure is reported on standard error.
type checker struct {
	attempted, failed int
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// digest returns the hex SHA-256 of v's JSON encoding.
func digest(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// checkDigest compares an iteration's result digest with the first
// iteration of the same population (every iteration of a population computes
// the same result) and, at the workload's default seed, with the committed
// golden digest.
func (b *bench) checkDigest(v any) error {
	d, err := digest(v)
	if err != nil {
		return err
	}
	if first, ok := b.digests[b.pop]; !ok {
		b.digests[b.pop] = d
	} else {
		b.chk.check(d == first, "%s: population %d result digest %s differs from its first iteration's %s", b.w.name, b.pop, d, first)
	}
	if b.runSeed == b.w.defaultSeed {
		want := golden[b.w.name][b.pop]
		b.chk.check(d == want, "%s: population %d result digest %s at the default seed, want %s", b.w.name, b.pop, d, want)
	}
	return nil
}
