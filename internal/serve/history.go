package serve

// EpochRecord is one committed epoch in serial order, retained when
// Options.RecordHistory is set. Replaying the records in slice order
// against a sequential oracle must reproduce every recorded response —
// the property the soak test asserts.
type EpochRecord struct {
	// Write marks a write epoch; its Ops may mix inserts and deletes and
	// committed as if applied one by one in slice order. A read epoch's
	// Ops all observed the same state.
	Write bool
	Ops   []*OpRecord
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
