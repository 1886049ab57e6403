package main

import "fmt"

func goldenKey(workload string, seed uint64) string { return fmt.Sprintf("%s/%d", workload, seed) }

// golden pins each workload's output for runs with seed 99, the
// default, and with seed 2023, a held-out seed for re-checking a claimed
// gain on inputs nobody tuned on. Keys are world seeds: a two-world run
// with seed s also uses world s+worldStride. The digests do not depend
// on the crawl's concurrency or the analysis worker count. A change that
// alters any output on purpose must re-pin them and say why.
var golden = map[string]digests{
	"reproduce/99": {
		Dataset: "05eb7c2e9263197ac487029b89c756d6d182d2cc66fc462f7b688904b78cde9b",
		Report:  "87efb29a5d4aab95bbe42983f1959342caee572c756a7a10abaf2265e358607a",
	},
	"reproduce/1000102": {
		Dataset: "1ed9a3261954b8599bfbb6cb4e0efc84ffc87b7d83a130fc5bf5f1f1e36700fe",
		Report:  "32433b65d4ccf43cdbf829f2a7163c5288bf7e107d4d859b40b426a5c3ea48de",
	},
	"reproduce/2023": {
		Dataset: "d73fafac67af1ac26f7bd0b580e0bb1fcd6eacde6d47bc23bc1671b4c2c78dd1",
		Report:  "1a5e09d6fe173ac34a52a78a3d682011e76bfa023a8c7ea4505ab43903f847d8",
	},
	"reproduce/1002026": {
		Dataset: "c04dc209f1b2025c53497866455232cf2ce19bd64913a5df6e5bcc484b2c51c3",
		Report:  "9957a63d4aeb2c68aed33efd03304b2602e2e889209d50394dda87680fcff290",
	},
	"crawl_scored/99": {
		Dataset: "7f352e4b7b3ba48b936f4afc57b283b252d97dd9b963cfad1f39faa012e712a3",
	},
	"crawl_scored/1000102": {
		Dataset: "ddb7dabc3a97070bcb01349026529529026fc47ce347ef867b6f8766daa3bf7e",
	},
	"crawl_scored/2023": {
		Dataset: "508c6e0b0ffcdd4929535e058599b620c16e34691bbb7d474d6945d0398df520",
	},
	"crawl_scored/1002026": {
		Dataset: "c514d5a1170a4c1d077497ee99cf5e5fb52a848d9faae2705bda5c0763e0c0be",
	},
	"figures/99": {
		Dataset: "3519f9d0c697ea826178853ed9f4197cf6834b08e73c87171fbbae7b62932630",
		Report:  "e2099bbe700e5a246bc9cb439bae962919bc7ff6f68557d0dbe5c5a80c07b0ca",
	},
	"figures/2023": {
		Dataset: "7bd7e10485d565dfdf9c10842db933a6e2d7be1dc530de214f9395601ca9a31a",
		Report:  "15dd93f8a42f922740a6703b5d352a9849cf90e9803c85d380f899dcbe73d11d",
	},
}
