package interp

import "dae/internal/ir"

// bop enumerates the bytecode opcodes. The first block is a 1:1 lowering of
// the compiled-op kinds; the final block is the superinstruction set, chosen
// from the measured dynamic op-pair histogram (see OpStats): cmp feeding the
// immediately-following conditional branch, the induction-variable increment
// feeding a loop back-edge, and a load followed by a prefetch (the signature
// pair of access phases).
type bop uint8

const (
	bBinI     bop = iota // ri[dst] = ri[a] <aux:ir.BinOp> ri[b]
	bBinF                // rf[dst] = rf[a] <aux:ir.BinOp> rf[b]
	bCmpI                // ri[dst] = cmp<aux:ir.CmpPred>(ri[a], ri[b])
	bCmpF                // ri[dst] = cmp<aux:ir.CmpPred>(rf[a], rf[b])
	bCastIF              // rf[dst] = float64(ri[a])
	bCastFI              // ri[dst] = int64(rf[a])
	bMath                // rf[dst] = <aux:ir.MathOp>(rf[a])
	bSelI                // ri[dst] = ri[a] != 0 ? ri[b] : ri[c]
	bSelF                // rf[dst] = ri[a] != 0 ? rf[b] : rf[c]
	bSelP                // rp[dst] = ri[a] != 0 ? rp[b] : rp[c]
	bLoadF               // rf[dst] = *rp[a]
	bLoadI               // ri[dst] = *rp[a]
	bStoreF              // *rp[b] = rf[a]
	bStoreI              // *rp[b] = ri[a]
	bPrefetch            // prefetch rp[a]
	bGEP1                // rp[dst] = rp[a] + ri[b] (single-index GEP)
	bGEP                 // rp[dst] = rp[a] + horner(pool[b:], c indices)
	bCall                // call callees[c] with moves[a:a+b] arg copies; result -> plane<aux>[dst]
	bBr                  // jump arms[a]
	bCondBr              // ri[a] != 0 ? arms[b] : arms[b+1]
	bRet                 // return plane<aux>[a] (a < 0: void)
	bNop
	// Superinstructions (two fused component ops each; src2 carries the
	// second component's IR instruction for faults and hooks).
	bCmpBrI   // ri[dst] = cmp<aux>(ri[a], ri[b]); branch arms[c]/arms[c+1]
	bCmpBrF   // ri[dst] = cmp<aux>(rf[a], rf[b]); branch arms[c]/arms[c+1]
	bIncBr    // ri[dst] = ri[a] + ri[b]; jump arms[c]
	bLoadPreF // rf[dst] = *rp[a]; prefetch rp[b]
	bLoadPreI // ri[dst] = *rp[a]; prefetch rp[b]
	// Address-compute fusion: a GEP whose result immediately feeds the
	// following memory op (gep->loadF alone is the hottest measured pair).
	// The GEP result register is still written — later ops may reuse it.
	bGEPLoadF  // rp[dst] = rp[a]+ri[b]; rf[c] = *rp[dst]
	bGEPLoadI  // rp[dst] = rp[a]+ri[b]; ri[c] = *rp[dst]
	bGEPPre    // rp[dst] = rp[a]+ri[b]; prefetch rp[dst]
	bGEPNLoadF // rp[dst] = rp[a]+horner(pool[b:], c); rf[d] = *rp[dst]
	bGEPNLoadI // rp[dst] = rp[a]+horner(pool[b:], c); ri[d] = *rp[dst]
	bGEPNPre   // rp[dst] = rp[a]+horner(pool[b:], c); prefetch rp[dst]
	// Float ALU fusion: back-to-back float binops where the second consumes
	// the first's result (multiply-add chains in the numeric kernels).
	bBinFF // rf[dst] = rf[a]<aux>rf[b]; rf[d] = rf[dst]<aux2>rf[c] (or swapped)
	// Back-edge fusion (four components): the induction increment, the loop
	// back-edge, and the loop-header compare-and-branch it jumps to. The
	// header instruction itself stays in place for its other predecessors;
	// the fused op merely inlines the unconditional continuation, so the pair
	// incBr->cmpBrI (the hottest pair in the bytecode stream, ~14% of all
	// dispatches) costs one dispatch per iteration instead of two. Operands
	// beyond the increment live in the pool: [backArm, cmpDst, cmpX, cmpY,
	// condArmBase].
	bIncCmpBr // ri[dst]=ri[a]+ri[b]; moves[backArm]; cmp; branch
)

// binFFRight, set in aux2, marks that the first component's result is the
// RIGHT operand of the second: rf[d] = rf[c] <op2> rf[dst].
const binFFRight = 0x80

// plane identifies a typed register file: the bytecode VM splits the
// all-purpose 32-byte val registers of the tree engine into dense int64,
// float64 and ptr planes, quartering register-file traffic for scalar code.
type plane uint8

const (
	planeI plane = iota
	planeF
	planeP
	planeNone
)

// binstr is one fixed-width bytecode instruction (24 bytes, vs ~200 for the
// tree engine's cop): all operands are plane-local register indices or pool
// offsets, and branch targets are resolved instruction offsets. aux2 and d
// carry the second component of three-address superinstructions (bBinFF, the
// multi-index GEP fusions); they are zero elsewhere.
type binstr struct {
	op         bop
	aux, aux2  uint8
	dst        int32
	a, b, c, d int32
}

// bmove is one typed register copy, used for phi edge moves and call
// argument passing (caller register -> callee parameter register).
type bmove struct {
	src, dst int32
	pl       plane
}

// barm is one branch edge: the resolved target offset and the phi move list
// for the edge.
type barm struct {
	target     int32
	moff, mlen int32
}

// bconst is a register pre-initialized with a constant at frame entry.
type bconst struct {
	reg int32
	pl  plane
	i   int64
	f   float64
}

// balloca is a pointer register pre-initialized with a frame-local stack
// slot at frame entry.
type balloca struct {
	reg  int32
	elem ElemKind
	slot int64
}

// paramReg locates one parameter in the callee's register planes.
type paramReg struct {
	reg int32
	pl  plane
}

// bcode is a function body compiled to register bytecode.
type bcode struct {
	fn      *ir.Func
	ins     []binstr
	src     []ir.Instr // per-pc originating IR instruction (faults, hooks)
	src2    []ir.Instr // second component of a fused pair, nil otherwise
	src3    []ir.Instr // third/fourth components (bIncCmpBr only); allocated
	src4    []ir.Instr // lazily by the back-edge fusion pass
	pool    []int32    // multi-index GEP operands: idx0, dim1, idx1, ...
	moves   []bmove    // phi edge and call argument copies
	arms    []barm
	callees []*bcode
	consts  []bconst
	allocas []balloca
	params  []paramReg

	nI, nF, nP       int // register-plane sizes
	nStackF, nStackI int
	maxMoves         int
}
