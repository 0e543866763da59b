(** Minimal JSON (RFC 8259): a value type, a strict parser and a
    printer.

    Every JSON document the project writes or reads goes through it:
    the campaign service's durable artifacts (job files, result rows,
    status documents) and the telemetry exports.  Numbers are [float]
    throughout (like JavaScript);
    integers survive a round-trip exactly up to 2^53.  The printer
    renders integral numbers without an exponent or decimal point, and
    non-finite numbers as [null], so emitted documents are always valid
    JSON. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Compact rendering (no insignificant whitespace).  Object fields keep
    their list order. *)
val to_string : t -> string

(** Strict parse of a complete document (trailing garbage is an error).
    [Error msg] carries a byte offset. *)
val parse : string -> (t, string) result

(** [parse], raising [Failure] on malformed input. *)
val parse_exn : string -> t

(** {1 Accessors} (total: mismatches return [None] / the default) *)

(** Field of an object ([None] on missing field or non-object). *)
val member : string -> t -> t option

val to_float_opt : t -> float option
val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_list : t -> t list
