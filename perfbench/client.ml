(* The server child process and the client side of the wire protocol.
   Frames are encoded with [Wire.frame] and decoded with [Wire.Decoder],
   the same code the server uses. *)

module Wire = Hr_frames.Wire

type server = { pid : int; port : int; out : Unix.file_descr }

let live : server list ref = ref []

let now = Unix.gettimeofday

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

(* Reads the banner line "hrdb_server listening on 127.0.0.1:PORT ...". *)
let read_port fd =
  let buf = Buffer.create 128 and b = Bytes.create 1 in
  let rec line () =
    match Unix.read fd b 0 1 with
    | 0 -> failwith "hrdb_server exited before listening"
    | _ when Bytes.get b 0 = '\n' -> Buffer.contents buf
    | _ ->
      Buffer.add_char buf (Bytes.get b 0);
      line ()
  in
  let l = line () in
  let key = "127.0.0.1:" in
  match find_sub l key with
  | None -> failwith ("unexpected server banner: " ^ l)
  | Some i ->
    let j = ref (i + String.length key) in
    while !j < String.length l && l.[!j] >= '0' && l.[!j] <= '9' do incr j done;
    int_of_string (String.sub l (i + String.length key) (!j - i - String.length key))

(* Starts [exe -p 0 -d dir] with the server's defaults: fsync on, no
   reader domains, group-commit window 0. *)
let start ~exe ~dir ~log =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process exe [| exe; "-p"; "0"; "-d"; dir |] devnull wr err in
  Unix.close wr;
  Unix.close err;
  Unix.close devnull;
  let s = { pid; port = 0; out = rd } in
  live := s :: !live;
  let port = read_port rd in
  let s = { s with port } in
  live := s :: List.filter (fun x -> x.pid <> pid) !live;
  s

let kill s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
  (try Unix.close s.out with Unix.Unix_error _ -> ());
  live := List.filter (fun x -> x.pid <> s.pid) !live

let kill_all () = List.iter kill !live

(* VmHWM: the server's peak resident set, in MiB. *)
let peak_rss_mb s =
  let ic = open_in (Printf.sprintf "/proc/%d/status" s.pid) in
  let rec scan () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

type conn = { fd : Unix.file_descr; dec : Wire.Decoder.t; chunk : Bytes.t }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; dec = Wire.Decoder.create (); chunk = Bytes.create 65536 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c payload =
  let s = Wire.frame "EXEC" payload in
  let len = String.length s in
  let rec push off = if off < len then push (off + Unix.write_substring c.fd s off (len - off)) in
  push 0

(* A frame already decoded from bytes received earlier, if any. *)
let pending c =
  match Wire.Decoder.next c.dec with
  | Ok f -> f
  | Error e -> failwith ("bad reply frame: " ^ e)

(* Reads what the socket holds into the decoder; false on EOF. *)
let fill c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n > 0 then Wire.Decoder.feed c.dec c.chunk n;
  n > 0

(* The next reply, waiting at most until [deadline]: [Ok payload] for
   OK, [Error msg] for ERR, a timeout or a closed connection. *)
let rec recv c ~deadline =
  match pending c with
  | Some ("OK", p) -> Ok p
  | Some (tag, p) -> Error (tag ^ ": " ^ p)
  | None ->
    let wait = deadline -. now () in
    if wait <= 0.0 then Error "timeout"
    else begin
      match Unix.select [ c.fd ] [] [] wait with
      | [], _, _ -> Error "timeout"
      | _ -> if fill c then recv c ~deadline else Error "connection closed"
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv c ~deadline
    end

let request c payload ~timeout =
  send c payload;
  recv c ~deadline:(now () +. timeout)
