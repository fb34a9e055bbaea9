package interp

// Guarded intrinsics. The Stopify prelude implements implicit conversions
// ($toPrim, $add, $sub, ...) and accessor-aware property access ($get,
// $set) as instrumented JavaScript, so that a user valueOf, toString,
// getter or setter runs as an ordinary call that can capture a
// continuation (§4.1, §4.3). When every operand is a primitive, or the
// property has no accessor, the body makes no JavaScript call into user
// code: it only calls natives, and the fast path calls the same ones. Call
// runs that case natively here and falls through to the unchanged
// JavaScript body otherwise; see DESIGN_interp.md "Guarded intrinsics" for
// the guards and the accounting.

// Intrinsic IDs, stored in ast.Func.Intrinsic. Zero means "none".
const (
	intrToPrim uint8 = iota + 1
	intrAdd
	intrSub
	intrMul
	intrDiv
	intrMod
	intrLt
	intrLe
	intrGt
	intrGe
	intrNeg
	intrToNum
	intrEq
	intrNe
	intrGet
	intrSet
	numIntrinsics
)

// intrinsicNames maps IDs to the prelude function each one implements.
var intrinsicNames = [numIntrinsics]string{
	intrToPrim: "$toPrim", intrAdd: "$add", intrSub: "$sub", intrMul: "$mul",
	intrDiv: "$div", intrMod: "$mod", intrLt: "$lt", intrLe: "$le",
	intrGt: "$gt", intrGe: "$ge", intrNeg: "$neg", intrToNum: "$tonum",
	intrEq: "$eq", intrNe: "$ne", intrGet: "$get", intrSet: "$set",
}

// intrinsicOps is the operator each binary arithmetic helper applies to its
// (primitive) operands.
var intrinsicOps = [numIntrinsics]string{
	intrAdd: "+", intrSub: "-", intrMul: "*", intrDiv: "/", intrMod: "%",
	intrLt: "<", intrLe: "<=", intrGt: ">", intrGe: ">=",
}

// intrinsicHeadroom is the call depth the deepest helper body reaches below
// its own frame ($add → $toPrim, $ne → $eq). The fast path declines unless
// the JavaScript body would have had that much stack, so a helper called at
// the stack limit still throws the same RangeError.
const intrinsicHeadroom = 2

// IntrinsicID returns the intrinsic ID of the prelude helper named name, or
// 0 when the helper has no native fast path ($construct). The compiler
// calls it for prelude declarations only.
func IntrinsicID(name string) uint8 {
	for id := uint8(1); id < numIntrinsics; id++ {
		if intrinsicNames[id] == name {
			return id
		}
	}
	return 0
}

// IntrinsicStat counts one helper's calls in a realm: Hits ran natively,
// Fallbacks ran the JavaScript body because a guard failed.
type IntrinsicStat struct {
	Name      string
	Hits      uint64
	Fallbacks uint64
}

type intrinsicCount struct{ hits, fallbacks uint64 }

// IntrinsicStats reports per-helper hit and fallback counts for every
// helper this realm called, in ID order. Executing goroutine only, like
// BytecodeStats.
func (in *Interp) IntrinsicStats() []IntrinsicStat {
	var out []IntrinsicStat
	for id := uint8(1); id < numIntrinsics; id++ {
		c := in.intrCounts[id]
		if c.hits+c.fallbacks > 0 {
			out = append(out, IntrinsicStat{Name: intrinsicNames[id], Hits: c.hits, Fallbacks: c.fallbacks})
		}
	}
	return out
}

// SetControlPhase tells the interpreter whether the runtime is capturing or
// restoring a continuation: "" is normal execution, anything else names the
// phase. Two things follow. The profiler annotates samples taken during a
// phase with it as a synthetic leaf frame, so capture and restore cost
// shows up attributed rather than smeared over whatever user frame is on
// top. And guarded intrinsics stand down: restore re-enters saved frames
// by calling them, so a helper frame on a saved stack must run its
// JavaScript body to jump to its saved label.
func (in *Interp) SetControlPhase(phase string) {
	in.controlPhase = phase != ""
	if in.prof != nil {
		in.prof.phase = phase
	}
}

// tryIntrinsic runs helper id's fast path for a call at the current depth.
// ok is false when a guard fails; the caller then runs the JavaScript body,
// which computes the same result the slow way.
func (in *Interp) tryIntrinsic(id uint8, args []Value) (v Value, ok bool, err error) {
	c := &in.intrCounts[id]
	if !in.controlPhase && in.depth+intrinsicHeadroom <= in.maxDepth {
		// The helper's own frame: user code a native step runs (an array
		// length store's valueOf) sees the depth the JavaScript body gives.
		in.depth++
		v, ok, err = in.intrinsic(id, args)
		in.depth--
	}
	if ok {
		c.hits++
	} else {
		c.fallbacks++
	}
	return v, ok, err
}

func isPrimitive(v Value) bool { return v.tag <= TagString }

func argAt(args []Value, i int) Value {
	if i < len(args) {
		return args[i]
	}
	return Undefined
}

// intrinsic is the fast path proper. Each case returns exactly the value
// and error the prelude body would for the arguments it accepts.
func (in *Interp) intrinsic(id uint8, args []Value) (Value, bool, error) {
	a := argAt(args, 0)
	switch id {
	case intrToPrim:
		return a, isPrimitive(a), nil
	case intrNeg, intrToNum:
		if !isPrimitive(a) {
			return Undefined, false, nil
		}
		f, err := in.ToNumber(a)
		if id == intrNeg {
			f = -f
		}
		return NumberValue(f), true, err
	case intrGet, intrSet:
		return in.accessIntrinsic(id, a, args)
	}
	b := argAt(args, 1)
	if !isPrimitive(a) || !isPrimitive(b) {
		return Undefined, false, nil
	}
	switch id {
	case intrEq, intrNe:
		eq, err := in.looseEquals(a, b)
		return BoolValue(eq != (id == intrNe)), true, err
	}
	if a.tag == TagNumber && b.tag == TagNumber {
		x, y := a.num, b.num
		switch id {
		case intrAdd:
			return NumberValue(x + y), true, nil
		case intrSub:
			return NumberValue(x - y), true, nil
		case intrMul:
			return NumberValue(x * y), true, nil
		case intrDiv:
			return NumberValue(x / y), true, nil
		case intrLt:
			return BoolValue(x < y), true, nil
		case intrLe:
			return BoolValue(x <= y), true, nil
		case intrGt:
			return BoolValue(x > y), true, nil
		case intrGe:
			return BoolValue(x >= y), true, nil
		}
	}
	v, err := in.applyBinary(intrinsicOps[id], a, b)
	return v, true, err
}

// accessIntrinsic is $get(o, k) and $set(o, k, v) for an object receiver
// and a primitive key with no getter (setter) on the chain: the helper
// would call $rawGet ($rawSet), which is what runs here.
func (in *Interp) accessIntrinsic(id uint8, o Value, args []Value) (Value, bool, error) {
	k := argAt(args, 1)
	if !o.IsObject() || !isPrimitive(k) {
		return Undefined, false, nil
	}
	key, _ := in.ToStringValue(k) // a primitive converts without error
	setter := id == intrSet
	if !in.LookupAccessor(o, key, setter).IsUndefined() {
		return Undefined, false, nil
	}
	if !setter {
		v, err := in.RawGet(o, key)
		return v, true, err
	}
	v := argAt(args, 2)
	if err := in.SetMember(o, key, v); err != nil {
		return Undefined, true, err
	}
	return v, true, nil
}
