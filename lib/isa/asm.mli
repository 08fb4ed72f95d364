(** Annotated assembly: textual form of CPE programs.

    The paper's model reads its computation inputs from the native
    compiler's annotated assembly ("the native compiler annotates
    elaborately on the assembly code, including the predicted issue
    cycle of each instruction"; "assembly annotations are currently
    checked by programmers").  This module renders programs in that
    spirit — instructions with predicted issue cycles, block timing and
    ILP summaries — and parses the textual form back, so programs can be
    stored, diffed and inspected.

    Grammar (one item per line; [;] starts a comment/annotation):

    {v
    dma.get  tag=0 contig:addr=0x100,bytes=2048 strided:addr=0x0,row=128,stride=512,rows=4
    dma.wait tag=0
    dma.waitall
    compute trips=128 {
      r1 <- fadd r0, r0        ; issue 0
      spm_st r2, r1            ; issue 1
    }
    gload  addr=0x10 bytes=8
    gstore addr=0x20 bytes=8
    repeat 4 {
      ...
    }
    v} *)

val render_program : ?annotate:Sw_arch.Params.t -> Program.t -> string
(** One item per line; with [annotate], each compute block also carries
    the scheduler's predicted issue cycles and a block summary
    (cycles/iteration, avg ILP) exactly as the model consumes them. *)

val parse_program : string -> (Program.t, string) result
(** Inverse of {!render_program}; annotations are ignored.  Errors carry
    the offending line number. *)

val parse_block : string -> (Instr.t array, string) result
(** Parse bare instruction lines (no braces). *)
