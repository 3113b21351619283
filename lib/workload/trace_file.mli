(** Trace-file frontend: a small text format for per-processor
    access/sync streams, so external workloads run under every backend
    without writing OCaml.

    Grammar (one directive or event per line; [#] starts a comment,
    blank lines are skipped):

    {v
    name <name>           # optional; defaults to the file's basename
    procs <n>             # required, before any event; 1 to Coherence.Config.max_procs
    words <n>             # required, before any event; 1 to Program.max_words
    <p> r <word>          # processor p reads shared word <word>
    <p> w <word>          # processor p writes shared word <word>
    <p> l <lock>          # processor p acquires lock <lock>
    <p> u <lock>          # processor p releases lock <lock>
    b                     # global barrier (every processor)
    v}

    Event order across processors carries no meaning — each processor's
    stream is the subsequence of its own lines — except [b], which
    appends a barrier to {e every} stream, delimiting a phase for all.
    The parsed program is {!Program.validate}d, so lock-discipline and
    barrier-balance violations are reported as parse failures too
    (prefixed with the program name, and pointing at the last line of
    the file).

    [<name>] is the raw remainder of the line: it may contain spaces.
    Unquoted, it ends at a [#] comment and boundary whitespace is
    trimmed; a double-quoted form — with backslash escapes for the
    backslash, the double quote, and the n/t/r control characters —
    covers names containing quotes, [#], newlines or significant
    boundary whitespace. {!to_string} picks whichever form round-trips
    the name.

    The [procs] and [words] limits are checked on the directive's own
    line, before anything is allocated for them. *)

exception Parse_error of { line : int; msg : string }
(** [line] is 1-based. Failures not tied to one line — a missing
    [procs]/[words] directive, a {!Program.validate} rejection — report
    the last line that carried any token (line 1 for an empty file). *)

val parse_string : ?name:string -> string -> Program.t
(** Parse trace text. A [name] directive in the text wins; [name] is
    the fallback when the text has none. Raises {!Parse_error}. *)

val parse_file : string -> Program.t
(** Parse a file; the default program name is the basename without its
    extension. Raises {!Parse_error} and [Sys_error]. *)

val to_string : Program.t -> string
(** Render a program in the trace format, phase by phase, such that
    [parse_string (to_string p)] equals [p] ({!Program.equal}). *)

val write_file : string -> Program.t -> unit
