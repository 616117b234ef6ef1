package repro.dodbench

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import java.io.File
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** Runs every workload at smoke scale, untraced and traced, and checks its
  * report against the metrics `BENCHMARK.json` declares.
  */
class SmokeSpec extends AnyFunSuite {
  private val mapper = new ObjectMapper
  private val declared = mapper.readTree(new File("../BENCHMARK.json"))

  private def entries(key: String): Seq[JsonNode] = declared.get(key).elements.asScala.toSeq
  private def metrics(key: String): Seq[(String, String)] =
    entries(key).map(m => m.get("name").asText -> m.get("unit").asText)

  test("BENCHMARK.json declares exactly the workloads and metrics the benchmark reports") {
    assert(entries("workloads").map(_.get("name").asText) == Workloads.all.map(_.name))
    assert(metrics("end_to_end") == Main.EndToEnd)
    assert(metrics("per_layer") == Main.PerLayer)
  }

  for (w <- Workloads.all; trace <- Seq(false, true))
    test(s"${w.name} at smoke scale, trace=$trace: every metric with its unit, no failed op") {
      val r = Main.run(Main.Args(w, seed = None, seconds = 1, trace = trace, smoke = true))
      val expected = metrics(if (trace) "per_layer" else "end_to_end")
      val json = mapper.readTree(r.json)
      assert(json.fieldNames.asScala.toSeq == Seq("correct", "attempted", "failed", "metrics"))
      assert(json.get("metrics").fieldNames.asScala.toSeq == expected.map(_._1))
      for ((name, unit) <- expected) {
        val m = json.get("metrics").get(name)
        assert(m.get("unit").asText == unit, name)
        assert(m.get("value").isNumber, name)
      }
      assert(json.get("failed").asInt == 0)
      assert(json.get("attempted").asInt > 0)
      assert(json.get("correct").asBoolean)
    }
}
