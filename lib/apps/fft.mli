(** FFT — 3-D complex Fast Fourier Transform over shared memory, with
    per-dimension pencil phases, explicit blocked transposes (writers stay
    inside their own partition, as in Splash2) and barriers between
    phases. Race-free; the body validates a forward+inverse round trip. *)

type params = { n1 : int; n2 : int; n3 : int }

val paper_params : params
(** 64 x 64 x 16 (the evaluation's input). *)

val small_params : params

val large_params : params
(** 128 x 64 x 32: the benchmark pipeline's headroom tier. *)

val fft_in_place : inverse:bool -> float array -> float array -> unit
(** In-place radix-2 Cooley-Tukey over private arrays (re, im). Lengths
    must be equal powers of two. *)

val input_re : int -> float
(** Deterministic input, a pure function of the flat element index. *)

val input_im : int -> float

val make : params -> App.t
(** Raises [Invalid_argument] unless all dimensions are powers of two. *)
