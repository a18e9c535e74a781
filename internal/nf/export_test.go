package nf

import "github.com/gunfu-nfv/gunfu/internal/dstruct"

// MatchTable exposes the table's cuckoo to the external tests, which
// compare tables built from logged keys with eagerly built ones.
func (t *FlowTable[F]) MatchTable() *dstruct.Cuckoo { return t.table }
