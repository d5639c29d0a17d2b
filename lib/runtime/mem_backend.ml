(* The memory backends the interpreter simulates in Split mode:

   - [Explicit] — the paper's split-memory explicit-copy model: the CGCM
     run-time ({!Runtime}) tracks allocation units, map/unmap/release
     move data over the bus, and the device owns a separate memory.

   - [Paged] — a single shared address space with touch-driven
     page-granular migration ({!Paged}): the hardware manages
     communication, and every cost comes from page faults charged at the
     interpreter's load/store hooks.

   The interpreter decides per site which one applies (Interp.explicit);
   this module only names them for the CLI, the serve mode suffix and
   the ledger. *)

type kind = Explicit | Paged

let of_string = function
  | "explicit" -> Ok Explicit
  | "paged" -> Ok Paged
  | s -> Error (Printf.sprintf "unknown memory backend %S (want explicit|paged)" s)

let all = [ ("explicit", Explicit); ("paged", Paged) ]
