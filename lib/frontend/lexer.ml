(* Hand-written lexer for CGC. Produces parallel arrays of token kinds and
   byte offsets so the recursive-descent parser can look ahead cheaply.
   Only tokens with a payload (literals, identifiers) allocate; a line and
   column are derived from an offset when a diagnostic needs one. *)

type pos = { line : int; col : int }

exception Lex_error of string * pos

type tokens = {
  src : string;
  kinds : Token.t array;
  offsets : int array;  (* byte offset of each token's first character *)
  count : int;  (* tokens in use, the final EOF included *)
}

(* Line and column of byte offset [ofs]: lines count from 1 at each
   newline, columns from 1 at the character after it. *)
let pos_of_offset src ofs =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to min ofs (String.length src) - 1 do
    if String.unsafe_get src i = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  { line = !line; col = ofs - !bol + 1 }

let pos_of tokens i = pos_of_offset tokens.src tokens.offsets.(i)

let error src ofs fmt =
  Fmt.kstr (fun s -> raise (Lex_error (s, pos_of_offset src ofs))) fmt

let is_digit c = c >= '0' && c <= '9'

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c

let tokenize (src : string) : tokens =
  let n = String.length src in
  (* CGC averages well over four bytes a token, so this rarely grows. *)
  let kinds = ref (Array.make ((n / 4) + 16) Token.EOF) in
  let offsets = ref (Array.make ((n / 4) + 16) 0) in
  let count = ref 0 in
  let emit ofs t =
    if !count = Array.length !kinds then begin
      let grow a fill =
        let b = Array.make (2 * !count) fill in
        Array.blit a 0 b 0 !count;
        b
      in
      kinds := grow !kinds Token.EOF;
      offsets := grow !offsets 0
    end;
    Array.unsafe_set !kinds !count t;
    Array.unsafe_set !offsets !count ofs;
    incr count
  in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    let p = !i in
    if c = '\n' || c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      i := !i + 2;
      let closed = ref false in
      while not !closed do
        if !i + 1 >= n then error src p "unterminated comment";
        if src.[!i] = '*' && src.[!i + 1] = '/' then begin
          closed := true;
          i := !i + 2
        end
        else incr i
      done
    end
    else if is_digit c || (c = '.' && !i + 1 < n && is_digit src.[!i + 1]) then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do incr i done;
      let is_float = ref false in
      if !i < n && src.[!i] = '.' then begin
        is_float := true;
        incr i;
        while !i < n && is_digit src.[!i] do incr i done
      end;
      if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
        is_float := true;
        incr i;
        if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
        while !i < n && is_digit src.[!i] do incr i done
      end;
      let text = String.sub src start (!i - start) in
      if !is_float then emit p (FLOAT_LIT (float_of_string text))
      else begin
        match Int64.of_string_opt text with
        | Some v -> emit p (INT_LIT v)
        | None -> error src p "bad integer literal %s" text
      end
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      let text = String.sub src start (!i - start) in
      match Token.keyword_of_string text with
      | Some kw -> emit p kw
      | None -> emit p (IDENT text)
    end
    else if c = '"' then begin
      incr i;
      let buf = Buffer.create 16 in
      let closed = ref false in
      while not !closed do
        if !i >= n then error src p "unterminated string literal";
        match src.[!i] with
        | '"' ->
          closed := true;
          incr i
        | '\\' ->
          if !i + 1 >= n then error src p "unterminated escape";
          (match src.[!i + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | '0' -> Buffer.add_char buf '\000'
          | '\\' -> Buffer.add_char buf '\\'
          | '"' -> Buffer.add_char buf '"'
          | e -> error src p "unknown escape \\%c" e);
          i := !i + 2
        | '\n' -> error src p "newline in string literal"
        | ch ->
          Buffer.add_char buf ch;
          incr i
      done;
      emit p (STRING_LIT (Buffer.contents buf))
    end
    else begin
      let nxt = if !i + 1 < n then src.[!i + 1] else '\000' in
      let two : Token.t =
        match (c, nxt) with
        | '-', '>' -> ARROW
        | '&', '&' -> AMPAMP
        | '|', '|' -> BARBAR
        | '<', '=' -> LE
        | '>', '=' -> GE
        | '<', '<' -> SHL
        | '>', '>' -> SHR
        | '=', '=' -> EQEQ
        | '!', '=' -> NE
        | '+', '=' -> PLUSEQ
        | '-', '=' -> MINUSEQ
        | '*', '=' -> STAREQ
        | '/', '=' -> SLASHEQ
        | '+', '+' -> PLUSPLUS
        | '-', '-' -> MINUSMINUS
        | _ -> EOF
      in
      if two != EOF then begin
        emit p two;
        i := !i + 2
      end
      else begin
        let one : Token.t =
          match c with
          | '(' -> LPAREN
          | ')' -> RPAREN
          | '{' -> LBRACE
          | '}' -> RBRACE
          | '[' -> LBRACKET
          | ']' -> RBRACKET
          | ';' -> SEMI
          | ',' -> COMMA
          | '?' -> QUESTION
          | '.' -> DOT
          | ':' -> COLON
          | '+' -> PLUS
          | '-' -> MINUS
          | '*' -> STAR
          | '/' -> SLASH
          | '%' -> PERCENT
          | '&' -> AMP
          | '<' -> LT
          | '>' -> GT
          | '=' -> ASSIGN
          | '!' -> BANG
          | _ -> error src p "unexpected character %C" c
        in
        emit p one;
        incr i
      end
    end
  done;
  emit !i EOF;
  { src; kinds = !kinds; offsets = !offsets; count = !count }
