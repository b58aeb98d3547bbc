package interp

import (
	"fmt"

	"dae/internal/ir"
)

// Prepared is a resolution-free handle on one function. The rt batch
// dispatcher prepares each task function once per core and then invokes it
// once per task, so the per-task hot path carries no map lookup or compile
// check — only frame setup and execution. A Prepared is tied to its Env (not
// safe for concurrent use, like the Env itself).
type Prepared struct {
	env *Env
	fn  *ir.Func
	bc  *bcode // bytecode VM
	tc  *code  // tree oracle, for an Env from NewOracleEnv
}

// Prepare resolves f for the Env.
func (e *Env) Prepare(f *ir.Func) (*Prepared, error) {
	p := &Prepared{env: e, fn: f}
	if err := p.resolve(); err != nil {
		return nil, err
	}
	return p, nil
}

// resolve compiles p.fn for the executor its Env runs on. It is the one
// place an Env's kind picks an executor.
func (p *Prepared) resolve() (err error) {
	if p.env.oracle {
		p.tc, err = p.env.prog.compiled(p.fn)
	} else {
		p.bc, err = p.env.bytecodeMemo(p.fn)
	}
	return err
}

// Call invokes the prepared function. Check ordering, step accounting, and
// every error string are identical to Env.Call.
func (p *Prepared) Call(args ...Value) (Value, error) {
	e := p.env
	if err := e.ctxErr(p.fn); err != nil {
		return Value{}, err
	}
	e.steps = 0
	e.armCheck()
	if len(args) != len(p.fn.Params) {
		return Value{}, fmt.Errorf("interp: call @%s with %d args, want %d", p.fn.Name, len(args), len(p.fn.Params))
	}
	var out val
	var err error
	if p.tc != nil {
		out, err = e.callOracle(p.tc, args)
	} else {
		out, err = e.brun(p.bc, args)
	}
	if err != nil {
		return Value{}, err
	}
	return retValue(p.fn, out), nil
}
