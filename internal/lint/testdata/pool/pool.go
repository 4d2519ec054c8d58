// Package pool is the poolhygiene fixture. It declares its own
// SystemPool: the analyzer matches the receiver's type name, so the
// protocol is checkable without importing the real netlist package.
package pool

import "errors"

type System struct{ busy bool }

type SystemPool struct{ free []*System }

func (p *SystemPool) Get() (*System, error) {
	if len(p.free) == 0 {
		return nil, errors.New("empty")
	}
	s := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return s, nil
}

func (p *SystemPool) Put(s *System) { p.free = append(p.free, s) }

type holder struct{ sys *System }

func work(s *System) {}

func goodPaired(p *SystemPool) error {
	sys, err := p.Get()
	if err != nil {
		return err
	}
	work(sys)
	p.Put(sys)
	return nil
}

func goodDeferred(p *SystemPool) error {
	sys, err := p.Get()
	if err != nil {
		return err
	}
	defer p.Put(sys)
	work(sys)
	return nil
}

func goodEscapeReturn(p *SystemPool) (*System, error) {
	sys, err := p.Get()
	if err != nil {
		return nil, err
	}
	return sys, nil
}

func goodEscapeStore(p *SystemPool, dst *holder) error {
	sys, err := p.Get()
	if err != nil {
		return err
	}
	dst.sys = sys
	return nil
}

func goodEscapeSend(p *SystemPool, ch chan *System) error {
	sys, err := p.Get()
	if err != nil {
		return err
	}
	ch <- sys
	return nil
}

func badLeak(p *SystemPool) error {
	sys, err := p.Get() // want `without a Put`
	if err != nil {
		return err
	}
	work(sys)
	return nil
}

func badDiscard(p *SystemPool) {
	p.Get() // want `discarded`
}

func badUnderscore(p *SystemPool) error {
	_, err := p.Get() // want `discarded`
	return err
}
