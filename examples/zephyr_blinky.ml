(* WAZI on the Zephyr RTOS simulator (paper §5.1): the embedded "blinky"
   — a Wasm module toggling a GPIO pin on a timer, with UART output,
   running over the auto-generated thin kernel interface.

     dune exec examples/zephyr_blinky.exe *)

open Wasm
open Wasm.Ast

let blinky_binary () =
  let b = Builder.create ~name:"blinky" () in
  ignore (Builder.add_memory b ~min:1 ~max:(Some 4));
  let imp name arity =
    Builder.import_func b ~module_:"wazi" ~name
      ~params:(List.init arity (fun _ -> Types.T_i32))
      ~results:[ Types.T_i32 ]
  in
  let cfg = imp "gpio_pin_configure" 3 in
  let toggle = imp "gpio_pin_toggle" 2 in
  let sleep = imp "k_sleep" 1 in
  let uart = imp "uart_poll_out" 2 in
  let k n = I32_const (Int32.of_int n) in
  let say s = List.concat_map (fun c -> [ k 1; k (Char.code c); Call uart; Drop ]) (List.init (String.length s) (String.get s)) in
  let main =
    Builder.func b ~name:"main" ~params:[] ~results:[ Types.T_i32 ]
      ~locals:[ Types.T_i32 ]
      (say "blinky up\n"
      @ [
          k 1; k 13; k 1; Call cfg; Drop;
          k 0; Local_set 0;
          Block
            ( Bt_none,
              [
                Loop
                  ( Bt_none,
                    [
                      Local_get 0; k 10; I32_relop Ge_s; Br_if 1;
                      k 1; k 13; Call toggle; Drop;
                      k 50; Call sleep; Drop;
                      Local_get 0; k 1; I32_binop Add; Local_set 0;
                      Br 0;
                    ] );
              ] );
        ]
      @ say "blinky done\n"
      @ [ k 0 ])
  in
  Builder.export_func b "main" main;
  Builder.export_memory b "memory" 0;
  Binary.encode (Builder.build b)

let () =
  let result, t = Wazi.run_module (blinky_binary ()) in
  (match result with
  | Wasm.Interp.R_done _ -> ()
  | Wasm.Interp.R_trap s -> Printf.printf "trap: %s\n" s
  | Wasm.Interp.R_exit c -> Printf.printf "exit %d\n" c);
  let z = t.Wazi.z in
  Printf.printf "UART: %s" (Zephyr.Zkernel.uart_output z);
  Printf.printf "GPIO pin 13 edges (virtual-time ms):\n";
  List.iter
    (fun (pin, v, ts) ->
      Printf.printf "  pin %d -> %d at %Ld ms\n" pin v (Int64.div ts 1_000_000L))
    (List.rev z.Zephyr.Zkernel.gpio_log)
