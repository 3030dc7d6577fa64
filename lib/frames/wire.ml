exception Disconnected

let max_frame = 64 * 1024 * 1024
let max_header = 4096

let repl_subscribe = "REPL_SUBSCRIBE"
let repl_snapshot = "REPL_SNAPSHOT"
let repl_record = "REPL_RECORD"
let repl_ack = "REPL_ACK"

let shard_pull = "SHARD_PULL"
let shard_part = "SHARD_PART"
let shard_exec = "SHARD_EXEC"
let shard_ack = "SHARD_ACK"

(* ---- blocking I/O ----------------------------------------------------- *)

let write_all fd s =
  let len = String.length s in
  let rec push off =
    if off < len then push (off + Unix.write_substring fd s off (len - off))
  in
  push 0

let frame tag payload = Printf.sprintf "%s %d\n%s" tag (String.length payload) payload

let send fd tag payload = write_all fd (frame tag payload)

let header_too_long = Error "frame header too long"

let read_line_fd fd =
  let buf = Buffer.create 64 in
  let byte = Bytes.make 1 ' ' in
  let rec loop () =
    match Unix.read fd byte 0 1 with
    | 0 -> raise Disconnected
    | _ ->
      let c = Bytes.get byte 0 in
      if c = '\n' then Ok (Buffer.contents buf)
      else if Buffer.length buf >= max_header then header_too_long
      else begin
        Buffer.add_char buf c;
        loop ()
      end
  in
  loop ()

let read_exact fd n =
  let data = Bytes.make n '\000' in
  let rec fill off =
    if off < n then begin
      let r = Unix.read fd data off (n - off) in
      if r = 0 then raise Disconnected;
      fill (off + r)
    end
  in
  fill 0;
  Bytes.to_string data

let parse_header header =
  match String.index_opt header ' ' with
  | None -> Error (Printf.sprintf "malformed frame header %S" header)
  | Some i -> (
    let tag = String.sub header 0 i in
    match int_of_string_opt (String.sub header (i + 1) (String.length header - i - 1)) with
    | None -> Error (Printf.sprintf "malformed frame length in %S" header)
    | Some len when len < 0 || len > max_frame ->
      Error (Printf.sprintf "unreasonable frame length %d" len)
    | Some len -> Ok (tag, len))

let recv fd =
  match Result.bind (read_line_fd fd) parse_header with
  | Error _ as e -> e
  | Ok (tag, len) -> Ok (tag, read_exact fd len)

(* ---- incremental decoding -------------------------------------------- *)

module Decoder = struct
  (* Undecoded input accumulates in [buf.[pos..len)]; [pos] is the parse
     cursor. The buffer is flat bytes rather than a [Buffer.t] so frames
     can be scanned and extracted without materializing the whole pending
     input as a string on every [next] — with a 64 MiB snapshot payload
     arriving in 64 KiB reads, a per-call copy would turn decoding into
     O(size^2/chunk) of memcpy. Here each byte is blitted in once by
     [feed], scanned in place, and copied out exactly once as the
     payload. Consumed bytes are compacted away whenever the cursor
     passes 64 KiB so a long-lived connection does not grow the buffer
     forever. *)
  type t = { mutable buf : Bytes.t; mutable len : int; mutable pos : int }

  let create () = { buf = Bytes.create 256; len = 0; pos = 0 }

  let feed t bytes n =
    if t.len + n > Bytes.length t.buf then begin
      let cap = ref (max 256 (Bytes.length t.buf)) in
      while !cap < t.len + n do
        cap := !cap * 2
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end;
    Bytes.blit bytes 0 t.buf t.len n;
    t.len <- t.len + n

  let compact t =
    if t.pos > 64 * 1024 then begin
      let rest = t.len - t.pos in
      (* shrink after a large frame (e.g. a snapshot bootstrap) so the
         capacity tracks the steady-state traffic, not the peak *)
      if Bytes.length t.buf > 1024 * 1024 && rest < Bytes.length t.buf / 4 then begin
        let smaller = Bytes.create (max 256 rest) in
        Bytes.blit t.buf t.pos smaller 0 rest;
        t.buf <- smaller
      end
      else Bytes.blit t.buf t.pos t.buf 0 rest;
      t.len <- rest;
      t.pos <- 0
    end

  let find_newline t =
    let rec scan i =
      if i >= t.len then None
      else if Bytes.get t.buf i = '\n' then Some i
      else scan (i + 1)
    in
    scan t.pos

  let next t =
    match find_newline t with
    | None -> if t.len - t.pos > max_header then header_too_long else Ok None
    | Some nl when nl - t.pos > max_header -> header_too_long
    | Some nl -> (
      let header = Bytes.sub_string t.buf t.pos (nl - t.pos) in
      match parse_header header with
      | Error _ as e -> e
      | Ok (tag, payload_len) ->
        if t.len - nl - 1 < payload_len then Ok None
        else begin
          let payload = Bytes.sub_string t.buf (nl + 1) payload_len in
          t.pos <- nl + 1 + payload_len;
          compact t;
          Ok (Some (tag, payload))
        end)
end

(* ---- payload helpers -------------------------------------------------- *)

let lsn_payload lsn = string_of_int lsn

let parse_lsn payload =
  match int_of_string_opt (String.trim payload) with
  | Some n when n >= 0 -> Ok n
  | Some _ | None -> Error (Printf.sprintf "malformed LSN payload %S" payload)

let lsn_prefixed lsn rest = Printf.sprintf "%d\n%s" lsn rest

let parse_lsn_prefixed payload =
  match String.index_opt payload '\n' with
  | None -> Error "missing LSN prefix"
  | Some i -> (
    match int_of_string_opt (String.sub payload 0 i) with
    | Some lsn when lsn >= 0 ->
      Ok (lsn, String.sub payload (i + 1) (String.length payload - i - 1))
    | Some _ | None -> Error (Printf.sprintf "malformed LSN prefix in %S" payload))
