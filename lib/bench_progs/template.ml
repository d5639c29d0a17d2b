(* Tiny template engine for the benchmark sources: replaces "@NAME"
   placeholders with integer values. Longest names are substituted first
   so "@NSTEPS" is never corrupted by "@N".

   [Registry.all] runs this at module initialisation in every process
   that links the suite, so each key's pass compares in place and
   allocates only its result string, or nothing when the key does not
   occur. *)

let subst (pairs : (string * int) list) (template : string) : string =
  let pairs =
    List.sort
      (fun (a, _) (b, _) -> compare (String.length b) (String.length a))
      pairs
  in
  let replace_all ~key ~value s =
    let klen = String.length key in
    let n = String.length s in
    let rec key_at i j = j = klen || (s.[i + j] = key.[j] && key_at i (j + 1)) in
    let placeholder_at i =
      i + klen <= n
      && key_at i 0
      && (i + klen = n
         ||
         let c = s.[i + klen] in
         not ((c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')))
    in
    (* the next placeholder at or after [i], or [n] *)
    let rec next i =
      if i >= n then n else if placeholder_at i then i else next (i + 1)
    in
    let rec count i acc =
      let j = next i in
      if j >= n then acc else count (j + klen) (acc + 1)
    in
    match count 0 0 with
    | 0 -> s
    | hits ->
      let v = string_of_int value in
      let vlen = String.length v in
      let out = Bytes.create (n + (hits * (vlen - klen))) in
      let rec fill src dst =
        let j = next src in
        Bytes.blit_string s src out dst (j - src);
        if j < n then begin
          Bytes.blit_string v 0 out (dst + j - src) vlen;
          fill (j + klen) (dst + j - src + vlen)
        end
      in
      fill 0 0;
      Bytes.unsafe_to_string out
  in
  List.fold_left
    (fun acc (key, value) -> replace_all ~key:("@" ^ key) ~value acc)
    template pairs
