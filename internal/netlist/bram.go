// Package netlist is the cycle-level system model of the paper's
// execution model (Fig. 2): "An engine moves the data from off-chip to a
// BRAM storage. The compiler-generated circuit accesses the arrays in
// BRAM and stores the output data into another BRAM, from which an
// engine retrieves data into the off-chip memory. Inside the
// compiler-generated circuit, the data path is fully pipelined. The
// controllers and buffers are in charge of feeding input data and
// retrieving output data to and from the data path."
package netlist

import "fmt"

// BRAM models an on-chip block RAM holding one array, one element per
// address.
type BRAM struct {
	Name string
	Data []int64
	// ElemBits is the stored element width (for reporting only; values
	// are wrapped by the producers).
	ElemBits int
	reads    int
	writes   int
}

// NewBRAM allocates a block RAM of n elements.
func NewBRAM(name string, n, elemBits int) *BRAM {
	return &BRAM{Name: name, Data: make([]int64, n), ElemBits: elemBits}
}

// Load fills the BRAM from off-chip data (the engine's job).
func (m *BRAM) Load(vals []int64) {
	copy(m.Data, vals)
}

// Read returns the element at addr.
func (m *BRAM) Read(addr int) (int64, error) {
	if addr < 0 || addr >= len(m.Data) {
		return 0, fmt.Errorf("netlist: %s: read address %d out of range [0,%d)", m.Name, addr, len(m.Data))
	}
	m.reads++
	return m.Data[addr], nil
}

// ReadRange returns the n-element range starting at addr as a read-only
// view — one bounds check per bus word instead of one per element — and
// counts n reads. Callers must consume the view before the next Load.
func (m *BRAM) ReadRange(addr, n int) ([]int64, error) {
	if addr < 0 || addr+n > len(m.Data) {
		return nil, fmt.Errorf("netlist: %s: read range [%d,%d) out of range [0,%d)", m.Name, addr, addr+n, len(m.Data))
	}
	m.reads += n
	return m.Data[addr : addr+n], nil
}

// Write stores v at addr.
func (m *BRAM) Write(addr int, v int64) error {
	if addr < 0 || addr >= len(m.Data) {
		return m.errWrite(addr)
	}
	m.writes++
	m.Data[addr] = v
	return nil
}

// checkWrite returns the error Write reports for addr, or nil when addr
// is in range.
func (m *BRAM) checkWrite(addr int) error {
	if addr < 0 || addr >= len(m.Data) {
		return m.errWrite(addr)
	}
	return nil
}

func (m *BRAM) errWrite(addr int) error {
	return fmt.Errorf("netlist: %s: write address %d out of range [0,%d)", m.Name, addr, len(m.Data))
}

// Stats returns the access counters (reads, writes) — used to verify the
// smart buffer's fetch-once property at system level.
func (m *BRAM) Stats() (reads, writes int) { return m.reads, m.writes }

// ResetStats zeroes the access counters (the stored data is untouched),
// so the fetch-once property can be checked per run when a BRAM is
// reused across System resets.
func (m *BRAM) ResetStats() { m.reads, m.writes = 0, 0 }
