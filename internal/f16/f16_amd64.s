//go:build amd64 && gc

#include "textflag.h"

// F16C half-precision slice conversion. See f16_amd64.go for the Go side
// (NaN fallback, tails) and the package comment for the numerics.
//
// VEX encodings only. Every vector instruction here, loads and stores
// included, is VEX-encoded (VMOVQ, never MOVQ, on an X register), and each
// routine ends with VZEROUPPER. A legacy-SSE instruction executed while the
// upper YMM halves are dirty pays a state transition or a false dependency
// on the whole register. On a 2-core Intel Xeon (AVX-512 capable, Go 1.24)
// decoding 4,096 halves took 0.40 µs as written, 0.54 µs with a VMOVQ load
// feeding a register VCVTPH2PS, 6.2 µs in the portable Go loop, and
// 106 µs with that one load written as the legacy MOVQ.
// BenchmarkDecodeSlice and BenchmarkEncodeSlice show such a slip.

// func hasF16C() bool
TEXT ·hasF16C(SB), NOSPLIT, $0-1
	// CPUID.1:ECX — OSXSAVE (bit 27), AVX (bit 28), F16C (bit 29).
	MOVQ $1, AX
	XORQ CX, CX
	CPUID
	ANDL $(1<<27 | 1<<28 | 1<<29), CX
	CMPL CX, $(1<<27 | 1<<28 | 1<<29)
	JNE  no
	// XCR0 — the OS saves XMM (bit 1) and YMM (bit 2) state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func encodeF16C(dst *F16, src *float64, n int) int
//
// Per chunk: four float64 -> VCVTPD2PS (round to float32 under MXCSR,
// which Go leaves at round-to-nearest-even) -> VCVTPS2PH $0 (round to half,
// nearest-even) -> 8 bytes stored. A chunk with an unordered (NaN) lane
// stops the loop before anything of it is stored.
TEXT ·encodeF16C(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

loop:
	CMPQ       AX, CX
	JGE        done
	VMOVUPD    (SI)(AX*8), Y0
	VCMPPD     $3, Y0, Y0, Y1
	VPTEST     Y1, Y1
	JNZ        done
	VCVTPD2PSY Y0, X0
	VCVTPS2PH  $0, X0, (DI)(AX*2)
	ADDQ       $4, AX
	JMP        loop

done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func decodeF16C(dst *float64, src *F16, n int)
//
// Per chunk: four halves -> VCVTPH2PS -> VCVTPS2PD -> 32 bytes stored.
// Both widenings are exact.
TEXT ·decodeF16C(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

loop:
	CMPQ      AX, CX
	JGE       done
	VCVTPH2PS (SI)(AX*2), X0
	VCVTPS2PD X0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       loop

done:
	VZEROUPPER
	RET
