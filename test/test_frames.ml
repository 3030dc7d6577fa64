(* Frame-KR front end tests: the paper's §1 pitch, Clyde reconstructed
   through frames. Also the wire protocol's header-length bound. *)

module Frames = Hr_frames.Frames
module Wire = Hr_frames.Wire

let elephant_kb () =
  let kb = Frames.create ~entity_domain:"animal" () in
  Frames.define_frame kb "elephant";
  Frames.define_frame kb ~is_a:[ "elephant" ] "african_elephant";
  Frames.define_frame kb ~is_a:[ "elephant" ] "indian_elephant";
  Frames.define_frame kb ~is_a:[ "elephant" ] "royal_elephant";
  Frames.define_individual kb ~is_a:[ "royal_elephant" ] "clyde";
  Frames.define_individual kb ~is_a:[ "royal_elephant"; "indian_elephant" ] "appu";
  Frames.define_slot kb ~slot:"color" ~values:[ "grey"; "white"; "dappled" ];
  kb

let test_inheritance () =
  let kb = elephant_kb () in
  Frames.set_slot kb ~frame:"elephant" ~slot:"color" ~value:"grey";
  Alcotest.(check (option string)) "clyde inherits grey" (Some "grey")
    (Frames.slot_value kb ~frame:"clyde" ~slot:"color")

let test_functional_override () =
  let kb = elephant_kb () in
  Frames.set_slot kb ~frame:"elephant" ~slot:"color" ~value:"grey";
  Frames.set_slot kb ~frame:"royal_elephant" ~slot:"color" ~value:"white";
  Frames.set_slot kb ~frame:"clyde" ~slot:"color" ~value:"dappled";
  Alcotest.(check (option string)) "clyde dappled" (Some "dappled")
    (Frames.slot_value kb ~frame:"clyde" ~slot:"color");
  Alcotest.(check (option string)) "appu white via royal" (Some "white")
    (Frames.slot_value kb ~frame:"appu" ~slot:"color");
  Alcotest.(check (option string)) "africans stay grey" (Some "grey")
    (Frames.slot_value kb ~frame:"african_elephant" ~slot:"color")

let test_forbid () =
  let kb = elephant_kb () in
  Frames.set_slot kb ~frame:"elephant" ~slot:"color" ~value:"grey";
  Frames.forbid_slot kb ~frame:"royal_elephant" ~slot:"color" ~value:"grey";
  Alcotest.(check (option string)) "royals have no color now" None
    (Frames.slot_value kb ~frame:"clyde" ~slot:"color")

let test_multi_valued_slot () =
  let kb = Frames.create () in
  Frames.define_frame kb "bird";
  Frames.define_individual kb ~is_a:[ "bird" ] "tweety";
  Frames.define_slot ~multi:true kb ~slot:"diet" ~values:[ "seeds"; "insects"; "fish" ];
  Frames.set_slot kb ~frame:"bird" ~slot:"diet" ~value:"seeds";
  Frames.set_slot kb ~frame:"bird" ~slot:"diet" ~value:"insects";
  Alcotest.(check (list string)) "both accumulate" [ "insects"; "seeds" ]
    (Frames.get_slot kb ~frame:"tweety" ~slot:"diet")

let test_conflicting_update_rejected () =
  let kb = elephant_kb () in
  Frames.set_slot kb ~frame:"royal_elephant" ~slot:"color" ~value:"white";
  (* a bare negative on indian elephants clashes at appu *)
  try
    Frames.forbid_slot kb ~frame:"indian_elephant" ~slot:"color" ~value:"white";
    Alcotest.fail "expected Kb_error"
  with Frames.Kb_error _ ->
    (* the failed update left nothing behind *)
    Alcotest.(check (option string)) "state intact" (Some "white")
      (Frames.slot_value kb ~frame:"appu" ~slot:"color")

let test_explain () =
  let kb = elephant_kb () in
  Frames.set_slot kb ~frame:"elephant" ~slot:"color" ~value:"grey";
  Frames.set_slot kb ~frame:"royal_elephant" ~slot:"color" ~value:"white";
  let out = Frames.explain_slot kb ~frame:"appu" ~slot:"color" ~value:"grey" in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec loop i = i + n <= m && (String.sub s i n = sub || loop (i + 1)) in
    loop 0
  in
  Alcotest.(check bool) "mentions the cancellation" true
    (contains ~sub:"royal_elephant" out && contains ~sub:"-" out)

let test_catalog_interop () =
  (* the kb's catalog is a normal catalog: HRQL works on it *)
  let kb = elephant_kb () in
  Frames.set_slot kb ~frame:"elephant" ~slot:"color" ~value:"grey";
  match Hr_query.Eval.run_script (Frames.catalog kb) "COUNT color;" with
  | Ok [ out ] ->
    (* appu + clyde are the only instances: both grey *)
    Alcotest.(check string) "countable through HRQL" "count: 2" out
  | Ok _ | Error _ -> Alcotest.fail "HRQL failed on the kb catalog"

let test_listing () =
  let kb = elephant_kb () in
  Alcotest.(check (list string)) "frames"
    [ "african_elephant"; "elephant"; "indian_elephant"; "royal_elephant" ]
    (Frames.frames kb);
  Alcotest.(check (list string)) "individuals" [ "appu"; "clyde" ] (Frames.individuals kb)

let test_errors () =
  let kb = elephant_kb () in
  (try
     Frames.define_slot kb ~slot:"color" ~values:[ "x" ];
     Alcotest.fail "duplicate slot"
   with Frames.Kb_error _ -> ());
  (try
     ignore (Frames.get_slot kb ~frame:"clyde" ~slot:"nope");
     Alcotest.fail "unknown slot"
   with Frames.Kb_error _ -> ());
  try
    Frames.set_slot kb ~frame:"ghost" ~slot:"color" ~value:"grey";
    Alcotest.fail "unknown frame"
  with Frames.Kb_error _ -> ()

(* [Wire.recv] on the far end of a socketpair after [bytes] were sent. *)
let recv_after bytes =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close a; Unix.close b)
    (fun () ->
      ignore (Unix.write_substring a bytes 0 (String.length bytes));
      Wire.recv b)

(* A peer that sends header bytes but never a newline: the blocking
   reader must stop at the header limit instead of buffering forever,
   and the incremental decoder must agree. A header of exactly the
   limit still reads. *)
let test_header_limit () =
  let header = String.make 5000 'A' in
  (match recv_after header with
  | Error msg -> Alcotest.(check string) "recv error" "frame header too long" msg
  | Ok (tag, _) -> Alcotest.failf "recv accepted a 5000-byte header as %S" tag);
  let dec = Wire.Decoder.create () in
  Wire.Decoder.feed dec (Bytes.of_string header) (String.length header);
  (match Wire.Decoder.next dec with
  | Error msg -> Alcotest.(check string) "decoder error" "frame header too long" msg
  | Ok _ -> Alcotest.fail "decoder accepted a 5000-byte header");
  match recv_after (String.make (Wire.max_header - 2) 'T' ^ " 1\nx") with
  | Ok (_, payload) -> Alcotest.(check string) "payload at the limit" "x" payload
  | Error msg -> Alcotest.failf "header of exactly max_header bytes rejected: %s" msg

let suite =
  [
    Alcotest.test_case "inheritance" `Quick test_inheritance;
    Alcotest.test_case "functional override chain" `Quick test_functional_override;
    Alcotest.test_case "negative assertions" `Quick test_forbid;
    Alcotest.test_case "multi-valued slots" `Quick test_multi_valued_slot;
    Alcotest.test_case "conflicting updates rejected atomically" `Quick
      test_conflicting_update_rejected;
    Alcotest.test_case "explanation" `Quick test_explain;
    Alcotest.test_case "HRQL interop" `Quick test_catalog_interop;
    Alcotest.test_case "listing" `Quick test_listing;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "wire: header without newline is rejected" `Quick test_header_limit;
  ]
