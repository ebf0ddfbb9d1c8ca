// AVX synthesis kernels. See synth_amd64.go for the contracts and
// synthplan.go (buildPhasorTab, macRow) for the bit-identity argument.
// Pure AVX1: VBROADCASTSD, VMOVUPD, VPERMILPD, VMULPD/VADDPD/VADDSUBPD on
// ymm — deliberately no FMA, which would change rounding versus the scalar
// Go kernels. Complexes are packed (re, im); VPERMILPD $0x5 swaps each
// (re, im) pair in lane, and VADDSUBPD's subtract-even/add-odd pattern is
// exactly the complex-multiply combine (ar·br − ai·bi, ar·bi + ai·br).

#include "textflag.h"

// func synthTabAVX(tab *complex128, n int, s4r, s4i float64)
//
// Continues tab[i] = tab[i-4]·s4 for i in [4, n), n a multiple of 4: two
// ymm chains (two complexes each) carry the last written group, so the four
// scalar dependency chains of the strided recurrence advance in two
// registers per iteration.
TEXT ·synthTabAVX(SB), NOSPLIT, $0-32
	MOVQ tab+0(FP), DI
	MOVQ n+8(FP), DX
	VBROADCASTSD s4r+16(FP), Y6
	VBROADCASTSD s4i+24(FP), Y7

	SHLQ $4, DX         // byte limit: n complexes
	MOVQ $64, CX        // write cursor, starting at element 4
	CMPQ CX, DX
	JGE  done

	VMOVUPD 0(DI), Y0   // chain A: tab[0], tab[1]
	VMOVUPD 32(DI), Y1  // chain B: tab[2], tab[3]

loop:
	VPERMILPD $0x5, Y0, Y2  // (i, r) swap of A
	VMULPD    Y6, Y0, Y3    // s4r·A
	VMULPD    Y7, Y2, Y2    // s4i·swap(A)
	VADDSUBPD Y2, Y3, Y0    // (s4r·r − s4i·i, s4r·i + s4i·r)
	VMOVUPD   Y0, (DI)(CX*1)

	VPERMILPD $0x5, Y1, Y4
	VMULPD    Y6, Y1, Y5
	VMULPD    Y7, Y4, Y4
	VADDSUBPD Y4, Y5, Y1
	VMOVUPD   Y1, 32(DI)(CX*1)

	ADDQ $64, CX
	CMPQ CX, DX
	JLT  loop

done:
	VZEROUPPER
	RET

// func synthMacAVX(row, tab *complex128, n int, cr, ci float64)
//
// row[i] += (cr, ci)·tab[i] for i in [0, n), n a multiple of 4, four
// complexes (two ymm) per iteration.
TEXT ·synthMacAVX(SB), NOSPLIT, $0-40
	MOVQ row+0(FP), DI
	MOVQ tab+8(FP), SI
	MOVQ n+16(FP), DX
	VBROADCASTSD cr+24(FP), Y6
	VBROADCASTSD ci+32(FP), Y7

	SHLQ  $4, DX
	XORQ  CX, CX
	TESTQ DX, DX
	JE    done

loop:
	VMOVUPD   (SI)(CX*1), Y0
	VMOVUPD   32(SI)(CX*1), Y1
	VPERMILPD $0x5, Y0, Y2
	VPERMILPD $0x5, Y1, Y3
	VMULPD    Y6, Y0, Y0    // cr·t
	VMULPD    Y6, Y1, Y1
	VMULPD    Y7, Y2, Y2    // ci·swap(t)
	VMULPD    Y7, Y3, Y3
	VADDSUBPD Y2, Y0, Y0    // (cr·tr − ci·ti, cr·ti + ci·tr)
	VADDSUBPD Y3, Y1, Y1
	VMOVUPD   (DI)(CX*1), Y4
	VMOVUPD   32(DI)(CX*1), Y5
	VADDPD    Y0, Y4, Y4    // row + contribution
	VADDPD    Y1, Y5, Y5
	VMOVUPD   Y4, (DI)(CX*1)
	VMOVUPD   Y5, 32(DI)(CX*1)
	ADDQ      $64, CX
	CMPQ      CX, DX
	JLT       loop

done:
	VZEROUPPER
	RET

// func synthCPUHasAVX() bool
//
// CPUID leaf 1: ECX bit 27 = OSXSAVE, bit 28 = AVX; then XGETBV(0) bits
// 1 and 2 confirm the OS saves/restores xmm+ymm state.
TEXT ·synthCPUHasAVX(SB), NOSPLIT, $0-1
	MOVQ $1, AX
	CPUID
	MOVL CX, BX
	ANDL $0x18000000, BX
	CMPL BX, $0x18000000
	JNE  no
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

// func synthCPUHasAVX2() bool
//
// CPUID leaf 7 (subleaf 0): EBX bit 5 = AVX2, after checking leaf 7
// exists. Callers also require synthCPUHasAVX for the OS ymm-state check.
TEXT ·synthCPUHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JE   no2
	MOVB $1, ret+0(FP)
	RET

no2:
	MOVB $0, ret+0(FP)
	RET

// One step of the three-chain seed LCG on four lanes:
// x ← x·A mod (2³¹−1) with A broadcast in Y7, the modulus in Y6 and
// modulus−1 in Y5 (for the t ≥ M test); Y8 is a temporary. Integer ops only,
// so every lane equals mulModSeed exactly.
#define MULMOD_SEED(x) \
	VPMULUDQ Y7, x, x \
	VPSRLQ   $31, x, Y8 \
	VPAND    Y6, x, x \
	VPADDQ   Y8, x, x \
	VPCMPGTQ Y5, x, Y8 \
	VPAND    Y6, Y8, Y8 \
	VPSUBQ   Y8, x, x

// func noiseSeedAVX2(vec, cooked *int64, n int, x *[24]uint64, step uint64)
//
// Fills vec[i] = H<<40 ^ M<<20 ^ L ^ cooked[i] for i in [0, n), n a
// multiple of 8, eight words per iteration in two independent groups of
// four (so the multiply latency of one group hides behind the other):
// x[0:4], x[4:8], x[8:12] hold the high, middle and low chain values of
// words 0..3, x[12:24] the same for words 4..7, and every lane steps by
// step (A²⁴) per iteration. On return x holds the chain values for words
// n..n+7.
TEXT ·noiseSeedAVX2(SB), NOSPLIT, $0-40
	MOVQ         vec+0(FP), DI
	MOVQ         cooked+8(FP), SI
	MOVQ         n+16(FP), DX
	MOVQ         x+24(FP), R8
	VPBROADCASTQ step+32(FP), Y7
	MOVQ         $0x7fffffff, AX
	MOVQ         AX, X6
	VPBROADCASTQ X6, Y6
	MOVQ         $0x7ffffffe, AX
	MOVQ         AX, X5
	VPBROADCASTQ X5, Y5
	VMOVDQU      0(R8), Y0
	VMOVDQU      32(R8), Y1
	VMOVDQU      64(R8), Y2
	VMOVDQU      96(R8), Y9
	VMOVDQU      128(R8), Y10
	VMOVDQU      160(R8), Y11

	SHLQ  $3, DX
	XORQ  CX, CX
	TESTQ DX, DX
	JE    seeddone

seedloop:
	VPSLLQ  $40, Y0, Y3
	VPSLLQ  $20, Y1, Y4
	VPXOR   Y4, Y3, Y3
	VPXOR   Y2, Y3, Y3
	VPXOR   (SI)(CX*1), Y3, Y3
	VMOVDQU Y3, (DI)(CX*1)
	VPSLLQ  $40, Y9, Y3
	VPSLLQ  $20, Y10, Y4
	VPXOR   Y4, Y3, Y3
	VPXOR   Y11, Y3, Y3
	VPXOR   32(SI)(CX*1), Y3, Y3
	VMOVDQU Y3, 32(DI)(CX*1)
	MULMOD_SEED(Y0)
	MULMOD_SEED(Y9)
	MULMOD_SEED(Y1)
	MULMOD_SEED(Y10)
	MULMOD_SEED(Y2)
	MULMOD_SEED(Y11)
	ADDQ    $64, CX
	CMPQ    CX, DX
	JLT     seedloop

seeddone:
	VMOVDQU Y0, 0(R8)
	VMOVDQU Y1, 32(R8)
	VMOVDQU Y2, 64(R8)
	VMOVDQU Y9, 96(R8)
	VMOVDQU Y10, 128(R8)
	VMOVDQU Y11, 160(R8)
	VZEROUPPER
	RET

// func noiseAddAVX2(dst, src *int64, n int)
//
// dst[j] += src[j] for j from n−1 down to 0, n a multiple of 4, four lanes
// per iteration from the top. dst and src may overlap as long as no element
// is read within three iterations of being written (refill's lag is 273).
TEXT ·noiseAddAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $3, CX

addloop:
	SUBQ    $32, CX
	JLT     adddone
	VMOVDQU (SI)(CX*1), Y0
	VPADDQ  (DI)(CX*1), Y0, Y0
	VMOVDQU Y0, (DI)(CX*1)
	JMP     addloop

adddone:
	VZEROUPPER
	RET
