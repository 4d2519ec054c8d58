package netlist

import "testing"

func TestBRAMReadWrite(t *testing.T) {
	m := NewBRAM("A", 8, 16)
	if err := m.Write(3, 42); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read(3)
	if err != nil || v != 42 {
		t.Fatalf("read = %d (%v)", v, err)
	}
	reads, writes := m.Stats()
	if reads != 1 || writes != 1 {
		t.Errorf("stats = %d/%d", reads, writes)
	}
}

func TestBRAMBounds(t *testing.T) {
	m := NewBRAM("A", 4, 8)
	if _, err := m.Read(4); err == nil {
		t.Error("read out of range not caught")
	}
	if _, err := m.Read(-1); err == nil {
		t.Error("negative read not caught")
	}
	if err := m.Write(4, 0); err == nil {
		t.Error("write out of range not caught")
	}
}

func TestBRAMLoad(t *testing.T) {
	m := NewBRAM("A", 4, 8)
	m.Load([]int64{1, 2, 3, 4, 5}) // extra elements ignored
	if m.Data[3] != 4 {
		t.Errorf("data = %v", m.Data)
	}
	m.Load([]int64{9})
	if m.Data[0] != 9 || m.Data[1] != 2 {
		t.Errorf("partial load corrupted data: %v", m.Data)
	}
}
