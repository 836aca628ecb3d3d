(** Table 2 / Section 4 gadget certifier.

    Certifies, on a concrete lower-bound instance: the structural
    invariants of the Figure 1/2 construction, the Lemma 4.3
    contraction structure (Figure 3), every distance bound of Table 2
    measured on the contracted graph, the Lemma 4.4 (diameter) and
    Lemma 4.9 (radius) gap classifications, and the Figure 4
    eccentricity floor ([>= 3α] outside the [a_i] clique) that makes
    the radius decided by the clique alone.

    Violation codes: [structure] (gadget or contraction shape),
    [table2-bound] (a measured distance above its Table 2 bound),
    [gap] (the measured diameter/radius on the wrong side of its
    YES/NO threshold for the instance's [F]/[F'] value),
    [not-distinguishable] (the thresholds too close for a
    [(3/2−ε)]-approximation to separate), and [ecc-floor]. *)

val certify : ?h:int -> ?flip_f:bool -> seed:int -> unit -> Report.certificate
(** Build both gadget variants at height [h] (default 2; must be even)
    with a random input of bit density 0.6 and certify everything
    above, on at most 4 representatives per Table 2 category (the
    full clique is quadratic). [?flip_f] is the negative control: the gap checks are evaluated
    against the {e negated} [F]/[F'] value, i.e. the instance is
    deliberately misclassified, which a sound certifier must reject. *)
