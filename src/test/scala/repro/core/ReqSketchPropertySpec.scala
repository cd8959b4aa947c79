package repro.core

import org.scalacheck.{Gen, Properties}
import org.scalacheck.Prop.{forAll, propBoolean}

/** Property-based invariants of the REQ sketch over arbitrary small streams
  * and parameters (plain ScalaCheck; sbt runs these alongside scalatest).
  */
object ReqSketchPropertySpec extends Properties("ReqSketch") {

  private val streamGen: Gen[List[Double]] =
    Gen.chooseNum(0, 3000).flatMap(n => Gen.listOfN(n, Gen.chooseNum(-1e6, 1e6)))

  private val epsGen: Gen[Double] = Gen.oneOf(0.05, 0.1, 0.25)

  property("n equals the number of updates") = forAll(streamGen, epsGen) { (xs, eps) =>
    val s = ReqSketch(eps, 0.1, seed = 1)
    xs.foreach(s.update)
    s.n == xs.length
  }

  property("rank is monotone in the query point") = forAll(streamGen, epsGen) { (xs, eps) =>
    xs.nonEmpty ==> {
      val s = ReqSketch(eps, 0.1, seed = 2)
      xs.foreach(s.update)
      val rs = xs.sorted.map(s.rank)
      rs == rs.sorted
    }
  }

  property("rank below min is 0; at max it is totalWeight") =
    forAll(streamGen, epsGen) { (xs, eps) =>
      xs.nonEmpty ==> {
        val s = ReqSketch(eps, 0.1, seed = 3)
        xs.foreach(s.update)
        s.rank(xs.min - 1) == 0 && s.rank(xs.max) == s.totalWeight
      }
    }

  property("total weight within 5% of n") = forAll(streamGen, epsGen) { (xs, eps) =>
    (xs.length >= 100) ==> {
      val s = ReqSketch(eps, 0.1, seed = 4)
      xs.foreach(s.update)
      math.abs(s.totalWeight - s.n) <= math.max(4, 0.05 * s.n)
    }
  }

  property("items stored never exceed stream length") =
    forAll(streamGen, epsGen) { (xs, eps) =>
      val s = ReqSketch(eps, 0.1, seed = 5)
      xs.foreach(s.update)
      s.itemsStored <= math.max(1, xs.length)
    }

  property("merge of a random split preserves n") =
    forAll(streamGen, Gen.chooseNum(0.0, 1.0)) { (xs, frac) =>
      val cut = (xs.length * frac).toInt
      val (l, r) = xs.splitAt(cut)
      val a = ReqSketch(0.1, 0.1, seed = 6); l.foreach(a.update)
      val b = ReqSketch(0.1, 0.1, seed = 7); r.foreach(b.update)
      a.merge(b).n == xs.length
    }

  property("quantile stays within the data range") =
    forAll(streamGen, Gen.chooseNum(0.01, 1.0)) { (xs, phi) =>
      xs.nonEmpty ==> {
        val s = ReqSketch(0.1, 0.1, seed = 8)
        xs.foreach(s.update)
        val q = s.quantile(phi)
        q >= xs.min && q <= xs.max
      }
    }

  private val dupGen: Gen[List[Double]] = Gen.chooseNum(1, 2000).flatMap(n =>
    Gen.listOfN(n, Gen.chooseNum(0, 20).map(_.toDouble)))

  property("duplicates keep rank monotone and weight consistent") =
    forAll(dupGen) { xs =>
      val s = ReqSketch(0.1, 0.1, seed = 9)
      xs.foreach(s.update)
      val rs = (0 to 21).map(i => s.rank(i.toDouble))
      rs == rs.sorted && s.rank(21.0) == s.totalWeight
    }

  property("streaming equals merge-of-singletons in count") =
    forAll(Gen.listOfN(300, Gen.chooseNum(-1e3, 1e3))) { xs =>
      var acc = ReqSketch(0.25, 0.1, seed = 10)
      xs.zipWithIndex.foreach { case (x, i) =>
        val one = ReqSketch(0.25, 0.1, seed = 11 + i)
        one.update(x)
        acc = acc.merge(one)
      }
      acc.n == xs.length
    }

  property("exact ranks while no compaction has happened") =
    forAll(Gen.listOfN(60, Gen.chooseNum(-1e6, 1e6))) { xs =>
      val distinct = xs.distinct
      val s = ReqSketch(0.05, 0.1, seed = 12)
      distinct.foreach(s.update)
      (s.height > 0 || s.itemsStored < distinct.length) || {
        distinct.sorted.zipWithIndex.forall { case (x, i) => s.rank(x) == i + 1 }
      }
    }

  // ------------------------------------------- quantile against the coreset
  //
  // The reference answer of `quantile(phi)`: the first coreset item whose
  // cumulative weight reaches min(max(1, ceil(phi·n)), Σw), or NaN when Σw = 0.
  // Streams include −0.0 and 0.0, ±∞, few distinct values and raw 64-bit
  // patterns (NaN excluded, as `update` skips it); sketches are streamed, or
  // merged from parts, whose stored weight can differ from n.

  private def referenceQuantile(s: ReqSketch, phi: Double): Double = {
    val c = s.coreset
    val target = math.min(math.max(1L, math.ceil(phi * s.n).toLong), c.map(_._2).sum)
    var acc = 0L
    if (target == 0) Double.NaN else c.find { case (_, w) => acc += w; acc >= target }.get._1
  }

  private val phis = Seq(1e-9, 1e-4, 0.01, 0.5, 0.99, 0.9999, 1.0)

  private def quantilesMatch(s: ReqSketch): Boolean =
    phis.forall(phi => java.lang.Double.doubleToRawLongBits(s.quantile(phi)) ==
      java.lang.Double.doubleToRawLongBits(referenceQuantile(s, phi)))

  private val edgeGen: Gen[Double] = Gen.frequency(
    3 -> Gen.oneOf(-0.0, 0.0, Double.PositiveInfinity, Double.NegativeInfinity, -1.0, 1.0),
    1 -> Gen.chooseNum(-1e6, 1e6))

  private val shapedStreamGen: Gen[List[Double]] = Gen.oneOf(
    edgeGen,
    Gen.chooseNum(0, 7).map(_.toDouble),
    Gen.long.map { b => val x = java.lang.Double.longBitsToDouble(b); if (x.isNaN) -0.0 else x },
    Gen.chooseNum(-1e6, 1e6)
  ).flatMap(item => Gen.chooseNum(0, 3000).flatMap(n => Gen.listOfN(n, item)))

  private val profileGen: Gen[ParamProfile] = Gen.oneOf(Practical, FixedK(4), FixedK(8))

  property("quantile is the first coreset item reaching min(max(1, ceil(phi n)), stored weight)") =
    forAll(shapedStreamGen, profileGen, epsGen, Gen.chooseNum(1, 6)) { (xs, profile, eps, parts) =>
      val sketches = xs.grouped(math.max(1, (xs.length + parts - 1) / parts)).zipWithIndex.map {
        case (part, i) => val s = ReqSketch(eps, 0.1, profile, seed = 13 + i); part.foreach(s.update); s
      }.toList
      val s = sketches.reduceOption(_ merge _).getOrElse(ReqSketch(eps, 0.1, profile, seed = 13))
      quantilesMatch(s)
    }

  property("quantile matches the coreset on merged sketches whose stored weight differs from n") = {
    val merged = (1 to 40).map { seed =>
      val r = new java.util.Random(seed)
      val parts = Seq.fill(16) {
        val s = ReqSketch(0.25, 0.1, FixedK(4), seed = seed * 100L + r.nextInt(100))
        Seq.fill(1 + r.nextInt(400))(r.nextInt(8) - 3.5).foreach(s.update)
        s
      }
      parts.reduce(_ merge _)
    }
    (merged.count(s => s.totalWeight != s.n) >= 10) :| "stored weight differs from n" &&
      merged.forall(quantilesMatch)
  }

  property("toBytes of fromBytes of toBytes is byte-identical") =
    forAll(Gen.oneOf(streamGen, dupGen, shapedStreamGen), profileGen, epsGen) {
      (xs, profile, eps) =>
        val s = ReqSketch(eps, 0.1, profile, seed = 14)
        xs.foreach(s.update)
        val bytes = ReqSketch.toBytes(s)
        ReqSketch.toBytes(ReqSketch.fromBytes(bytes)).sameElements(bytes)
    }
}
