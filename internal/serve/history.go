package serve

// EpochRecord is one committed epoch in serial order, retained when
// Options.RecordHistory is set. Its Ops are the epoch's calls in arrival
// order, committed as if applied one by one in that order: replaying
// the records in slice order against a sequential oracle must reproduce
// every recorded response — the property the soak tests assert.
type EpochRecord struct {
	Ops []*OpRecord
}

// OpRecord is one request's inputs and responses within its epoch.
type OpRecord struct {
	Op     Op
	Keys   []Key
	Values []uint64 // OpInsert
	LCPs   []int    // OpLCP
	Vals   []uint64 // OpGet
	Found  []bool   // OpGet, OpDelete
	KVs    [][]KV   // OpSubtree
}
