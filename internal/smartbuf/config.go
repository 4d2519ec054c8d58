package smartbuf

import (
	"fmt"

	"roccc/internal/hir"
)

// ConfigFor derives the smart-buffer configuration from a front-end
// window access pattern (hir.Window), the surrounding loop nest and the
// memory bus width in elements. The window's dimensions must follow the
// nest order (outer variable indexes dimension 0) so that row-major
// streaming matches the iteration order.
func ConfigFor(w *hir.Window, nest *hir.LoopNest, busElems int) (Config, error) {
	ndim := len(w.Dims)
	cfg := Config{
		Extent:    make([]int, ndim),
		MinOff:    make([]int, ndim),
		Stride:    make([]int, ndim),
		ArrayDims: append([]int{}, w.Arr.Dims...),
		Origin:    make([]int, ndim),
		Windows:   make([]int, ndim),
		ElemBits:  w.Arr.Elem.Bits,
		BusElems:  busElems,
	}
	if len(cfg.ArrayDims) != ndim {
		return Config{}, fmt.Errorf("smartbuf: array %s has %d dims, window has %d",
			w.Arr.Name, len(cfg.ArrayDims), ndim)
	}
	for d := 0; d < ndim; d++ {
		dim := w.Dims[d]
		if dim.Var == nil {
			return Config{}, fmt.Errorf("smartbuf: window dimension %d of %s is constant", d, w.Arr.Name)
		}
		// Match the dimension's induction variable to a nest level.
		level := -1
		for l, v := range nest.Vars {
			if v == dim.Var {
				level = l
			}
		}
		if level < 0 {
			return Config{}, fmt.Errorf("smartbuf: window on %s uses non-nest variable %s", w.Arr.Name, dim.Var.Name)
		}
		if ndim == 2 && ((d == 0 && level != nest.Depth()-2) || (d == 1 && level != nest.Depth()-1)) {
			return Config{}, fmt.Errorf("smartbuf: window dims of %s do not follow nest order", w.Arr.Name)
		}
		if ndim == 1 && level != nest.Depth()-1 {
			return Config{}, fmt.Errorf("smartbuf: 1-D window of %s must use the innermost loop variable", w.Arr.Name)
		}
		scale := dim.Scale
		if scale <= 0 {
			return Config{}, fmt.Errorf("smartbuf: non-positive index scale on %s", w.Arr.Name)
		}
		min, extent := w.Span(d)
		cfg.MinOff[d] = int(min)
		cfg.Extent[d] = int(extent)
		cfg.Stride[d] = int(nest.Step[level] * scale)
		cfg.Origin[d] = int(nest.From[level]*scale + min)
		cfg.Windows[d] = int(nest.Trips(level))
	}
	for _, e := range w.Elems {
		tap := make([]int64, len(e.Offsets))
		copy(tap, e.Offsets)
		cfg.Taps = append(cfg.Taps, tap)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// configsKey keys KernelConfigs's results on hir.Kernel.PlanCache.
type configsKey struct{ bus int }

type kernelConfigs struct {
	cfgs []Config
	err  error
}

// KernelConfigs returns the configuration of every read window of k at
// a bus width of busElems elements, in k.Reads order, or nil for a
// kernel that does not stream (hir.Kernel.Streams). It is the one
// derivation the system plan, synthesis, VHDL emission and the
// verifiers read: the result, or the first window's error, is derived
// once per (kernel, bus), cached on k.PlanCache and shared by every
// caller, so none may modify it.
func KernelConfigs(k *hir.Kernel, busElems int) ([]Config, error) {
	if !k.Streams() {
		return nil, nil
	}
	v, ok := k.PlanCache.Load(configsKey{busElems})
	if !ok {
		c := &kernelConfigs{cfgs: make([]Config, len(k.Reads))}
		for i, w := range k.Reads {
			if c.cfgs[i], c.err = ConfigFor(w, &k.Nest, busElems); c.err != nil {
				c.cfgs = nil
				break
			}
		}
		v, _ = k.PlanCache.LoadOrStore(configsKey{busElems}, c)
	}
	c := v.(*kernelConfigs)
	return c.cfgs, c.err
}
