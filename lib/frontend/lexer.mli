(** Hand-written lexer for CGC, producing parallel arrays of token kinds
    and byte offsets so the recursive-descent parser can look ahead
    cheaply. *)

type pos = { line : int; col : int }

exception Lex_error of string * pos

type tokens = {
  src : string;
  kinds : Token.t array;
  offsets : int array;  (** byte offset of each token in [src] *)
  count : int;
      (** tokens in use: [kinds] and [offsets] may be longer. Token
          [count - 1] is always {!Token.EOF}. *)
}

val tokenize : string -> tokens
(** Comments ([//] and [/* */]) and whitespace are skipped. *)

val pos_of : tokens -> int -> pos
(** Line and column (both from 1) of token [i]. *)
